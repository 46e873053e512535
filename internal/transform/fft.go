// Package transform implements MacroBase's domain-specific feature
// transformation operators (paper §3.2 stage 2, §6.4): Fourier analysis
// (FFT and a grouped, windowed short-time Fourier transform) for
// time-series pipelines, and a block-matching optical-flow transform
// for video pipelines.
package transform

import "math"

// FFT computes the in-place radix-2 Cooley-Tukey fast Fourier
// transform of the complex sequence (re, im). len(re) must equal
// len(im) and be a power of two.
func FFT(re, im []float64) {
	n := len(re)
	if n != len(im) {
		panic("transform: FFT length mismatch")
	}
	if n&(n-1) != 0 {
		panic("transform: FFT length must be a power of two")
	}
	if n < 2 {
		return
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i, j := start+k, start+k+half
				tRe := re[j]*curRe - im[j]*curIm
				tIm := re[j]*curIm + im[j]*curRe
				re[j], im[j] = re[i]-tRe, im[i]-tIm
				re[i], im[i] = re[i]+tRe, im[i]+tIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HannWindow multiplies xs in place by the Hann taper, the standard
// window applied before an STFT to limit spectral leakage.
func HannWindow(xs []float64) {
	n := len(xs)
	if n < 2 {
		return
	}
	for i := range xs {
		xs[i] *= 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
}

// SpectrumMagnitudes returns the first k magnitudes |X_0..X_{k-1}| of
// the FFT of xs, zero-padding xs to the next power of two. It is the
// "lowest Fourier coefficients" truncation of the paper's electricity
// pipeline (§6.4).
func SpectrumMagnitudes(xs []float64, k int) []float64 {
	n := NextPow2(len(xs))
	re := make([]float64, n)
	im := make([]float64, n)
	copy(re, xs)
	FFT(re, im)
	if k > n {
		k = n
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = math.Hypot(re[i], im[i])
	}
	return out
}
