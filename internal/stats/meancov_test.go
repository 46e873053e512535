package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// meanCovGo is MeanCovInto on its Go sums whatever the CPU: the oracle
// the AVX2 kernel is held to.
func meanCovGo(mean []float64, cov *Mat, pts [][]float64, idx []int) {
	meanCovSums(mean, cov, pts, idx, nil)
	scatterToCov(cov, len(mean), len(idx))
}

// checkMeanCovAVX2 runs MeanCovInto and the Go oracle over the same rows
// and requires the same mean and covariance bits. Two NaNs count as the
// same whatever their payloads (sameBits), as for the sweep: which of
// two NaN operands survives an add or a multiply depends on operand
// order, which the Go compiler chooses.
func checkMeanCovAVX2(t *testing.T, pts [][]float64, idx []int, d int, what string) {
	t.Helper()
	mean, cov := make([]float64, d), NewMat(d, d)
	wantMean, wantCov := make([]float64, d), NewMat(d, d)
	for i := range cov.Data {
		cov.Data[i], wantCov.Data[i] = -7, -7 // dirty, as a reused buffer is
	}
	MeanCovInto(mean, cov, pts, idx, nil)
	meanCovGo(wantMean, wantCov, pts, idx)
	for j := range mean {
		if !sameBits(mean[j], wantMean[j]) {
			t.Fatalf("%s: d=%d n=%d: mean[%d] %v (%#x), Go %v (%#x)", what, d, len(idx), j,
				mean[j], math.Float64bits(mean[j]), wantMean[j], math.Float64bits(wantMean[j]))
		}
	}
	for c := range cov.Data {
		if !sameBits(cov.Data[c], wantCov.Data[c]) {
			t.Fatalf("%s: d=%d n=%d: cov[%d][%d] %v (%#x), Go %v (%#x)", what, d, len(idx), c/d, c%d,
				cov.Data[c], math.Float64bits(cov.Data[c]), wantCov.Data[c], math.Float64bits(wantCov.Data[c]))
		}
	}
}

// meanCovSpecials are the values that take the sums off their normal
// path: NaN, ±Inf, signed zeros, subnormals, and magnitudes whose
// products overflow or underflow.
var meanCovSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -3e-310, 2.2250738585072014e-308,
	1e300, -1e300, 1e-300, -1e-300,
}

// TestMeanCovAVX2MatchesGo holds MeanCovInto to its Go sums for p from 1
// to 12 (the kernel's 1-8, and the Go code past it) and n from 0 to
// 1001, over rows wider than p, repeated and unsorted indexes, plain and
// special values.
func TestMeanCovAVX2MatchesGo(t *testing.T) {
	requireUnfused(t)
	rng := rand.New(rand.NewPCG(89, 97))
	for p := 1; p <= 12; p++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 100, 256, 257, 1001} {
			for _, special := range []bool{false, true} {
				pts := make([][]float64, n+3)
				for r := range pts {
					pts[r] = make([]float64, p+r%3) // some rows longer than p
					for i := range pts[r] {
						pts[r][i] = rng.NormFloat64()*float64(i+1) + float64(i)
						if special && rng.IntN(4) == 0 {
							pts[r][i] = meanCovSpecials[rng.IntN(len(meanCovSpecials))]
						}
					}
				}
				idx := make([]int, n)
				for i := range idx {
					idx[i] = rng.IntN(len(pts))
				}
				checkMeanCovAVX2(t, pts, idx, p, "table")
			}
		}
	}
}

// TestMeanCovAVX2TakesKernel: on an AVX2 CPU the kernel runs for every p
// from 1 to 8 and no other, so the differential test above compares it
// and not the Go sums with themselves.
func TestMeanCovAVX2TakesKernel(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: MeanCovInto runs the Go sums")
	}
	for p := 1; p <= 12; p++ {
		pts := [][]float64{make([]float64, p), make([]float64, p)}
		if got := meanCovKernel(make([]float64, p), NewMat(p, p), pts, []int{1, 0}); got != (p <= 8) {
			t.Errorf("p=%d: kernel ran %v", p, got)
		}
	}
}

// TestMeanCovShortRowPanics: a row shorter than d, or an index out of
// range, stops the kernel before it writes, and the Go sums then panic
// on it as they always have.
func TestMeanCovShortRowPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  []int
	}{{"short row", []int{0, 1, 2}}, {"index past the rows", []int{0, 3}}, {"negative index", []int{1, -1}}} {
		t.Run(tc.name, func(t *testing.T) {
			pts := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8}}
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			MeanCovInto(make([]float64, 3), NewMat(3, 3), pts, tc.idx, nil)
		})
	}
}

// FuzzMeanCovAVX2MatchesGo feeds MeanCovInto rows whose bits come from
// the input, p from 1 to 12 and n up to 1001 indexes drawn from them,
// and requires the Go sums' bits.
func FuzzMeanCovAVX2MatchesGo(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(7), uint16(13), uint64(1), seed(1, -2, 3.5))
	f.Add(uint8(3), uint16(9), uint64(2), seed(meanCovSpecials...))
	f.Add(uint8(8), uint16(1001), uint64(3), seed(math.NaN(), math.Inf(1), math.Inf(-1), 1e-310))
	f.Add(uint8(5), uint16(0), uint64(4), seed(1e300, -1e300, 1e300))
	f.Add(uint8(12), uint16(40), uint64(5), seed(2.2250738585072014e-308, -0.0, 1e-300))
	f.Fuzz(func(t *testing.T, pb uint8, nb uint16, s uint64, data []byte) {
		requireUnfused(t)
		p, n := 1+int(pb)%12, int(nb)%1002
		rng := rand.New(rand.NewPCG(s, 101))
		next := func() float64 {
			if len(data) < 8 {
				return rng.NormFloat64()
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		pts := make([][]float64, 1+n/4)
		for r := range pts {
			pts[r] = make([]float64, p)
			for i := range pts[r] {
				pts[r][i] = next()
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.IntN(len(pts))
		}
		checkMeanCovAVX2(t, pts, idx, p, "fuzz")
	})
}
