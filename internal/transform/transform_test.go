package transform

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/gen"
)

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{2, 4, 8, 64, 256} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantRe, wantIm := DFT(re, im)
		FFT(re, im)
		for i := range re {
			if math.Abs(re[i]-wantRe[i]) > 1e-9 || math.Abs(im[i]-wantIm[i]) > 1e-9 {
				t.Fatalf("n=%d: FFT[%d] = (%v,%v), want (%v,%v)", n, i, re[i], im[i], wantRe[i], wantIm[i])
			}
		}
	}
}

func TestFFTPanics(t *testing.T) {
	for _, f := range []func(){
		func() { FFT(make([]float64, 3), make([]float64, 3)) },
		func() { FFT(make([]float64, 4), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSpectrumDetectsFrequency(t *testing.T) {
	// Pure tone at bin 8 of a 64-sample window.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * 8 * float64(i) / 64)
	}
	mags := SpectrumMagnitudes(xs, 16)
	peak := 0
	for i, m := range mags {
		if m > mags[peak] {
			peak = i
		}
	}
	if peak != 8 {
		t.Errorf("spectral peak at bin %d, want 8", peak)
	}
}

func TestSTFTEmitsPerWindow(t *testing.T) {
	s := STFT{GroupAttr: -1, MetricDim: 0, WindowSec: 64, Coeffs: 8}
	var batch []core.Point
	// Two windows of a tone with different frequencies.
	for i := 0; i < 128; i++ {
		freq := 4.0
		if i >= 64 {
			freq = 16
		}
		batch = append(batch, core.Point{
			Metrics: []float64{math.Sin(2 * math.Pi * freq * float64(i%64) / 64)},
			Time:    float64(i),
		})
	}
	out := s.Apply(batch)
	if len(out) != 2 {
		t.Fatalf("emitted %d windows, want 2", len(out))
	}
	if len(out[0].Metrics) != 8 || len(out[1].Metrics) != 8 {
		t.Fatalf("coefficient arity wrong")
	}
	// First window has a peak at bin 4; the second's energy at bin 4
	// should be far lower.
	if out[0].Metrics[4] < 10*out[1].Metrics[4] {
		t.Errorf("window spectra not distinguished: %v vs %v", out[0].Metrics[4], out[1].Metrics[4])
	}
}

func TestSTFTGroupsAndAttrs(t *testing.T) {
	s := STFT{GroupAttr: 0, MetricDim: 0, WindowSec: 10, Coeffs: 4, AttrsFor: func(group int32, start float64) []int32 {
		return []int32{group, int32(start)}
	}}
	var batch []core.Point
	for i := 0; i < 20; i++ {
		batch = append(batch, core.Point{Metrics: []float64{1}, Attrs: []int32{9}, Time: float64(i)})
	}
	out := s.Apply(batch)
	if len(out) != 2 {
		t.Fatalf("emitted %d, want 2", len(out))
	}
	if out[0].Attrs[0] != 9 || out[1].Attrs[1] != 10 {
		t.Errorf("window attrs = %v, %v", out[0].Attrs, out[1].Attrs)
	}
}

func TestBlockFlowStaticVsShifted(t *testing.T) {
	const w, h = 32, 32
	frame := make([]float64, w*h)
	rng := rand.New(rand.NewPCG(7, 8))
	for i := range frame {
		frame[i] = rng.Float64() * 255
	}
	if mag := BlockFlow(frame, frame, w, h); mag != 0 {
		t.Errorf("static flow = %v, want 0", mag)
	}
	// Shift the frame 2 pixels right: flow magnitude ~2.
	shifted := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := x - 2
			if sx < 0 {
				sx = 0
			}
			shifted[y*w+x] = frame[y*w+sx]
		}
	}
	mag := BlockFlow(frame, shifted, w, h)
	if mag < 1.0 || mag > 3.0 {
		t.Errorf("shifted flow = %v, want ~2", mag)
	}
}

func TestFlowApply(t *testing.T) {
	const w, h = 16, 16
	f := Flow{Width: w, Height: h}
	mk := func(shift int) core.Point {
		fr := make([]float64, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				fr[y*w+x] = float64((x + shift) % 8)
			}
		}
		return core.Point{Metrics: fr, Attrs: []int32{1}}
	}
	frames := []core.Point{mk(0), mk(0), mk(3)}
	out := f.Apply(frames)
	if len(out) != 2 {
		t.Fatalf("emitted %d, want 2", len(out))
	}
	if out[0].Metrics[0] != 0 {
		t.Errorf("static pair flow = %v", out[0].Metrics[0])
	}
	if out[1].Metrics[0] == 0 {
		t.Error("moving pair reported zero flow")
	}
	// Malformed frames are dropped, and a frame pair spans one.
	if got := f.Apply([]core.Point{{Metrics: []float64{1, 2}}}); len(got) != 0 {
		t.Error("malformed frame not dropped")
	}
	spanned := f.Apply([]core.Point{frames[1], {Metrics: []float64{1, 2}}, frames[2]})
	if len(spanned) != 1 || spanned[0].Metrics[0] != out[1].Metrics[0] {
		t.Errorf("flow across a malformed frame = %v, want [%v]", spanned, out[1])
	}
	// Apply holds no state: a second call answers as the first did.
	if again := f.Apply(frames); !reflect.DeepEqual(again, out) {
		t.Errorf("second Apply = %v, want %v", again, out)
	}
}

// TestSTFTApplyDeterministic checks that a grouped STFT's output is a
// function of its input: the windows still open at the end of the
// input (one per device) come out in first-seen group order, not in
// map order, so a training sample drawn by index sees the same points
// on every run.
func TestSTFTApplyDeterministic(t *testing.T) {
	_, pts, _ := gen.Electricity(gen.ElectricityConfig{Devices: 6, Days: 21, Seed: 9})
	s := STFT{GroupAttr: 0, MetricDim: 0, WindowSec: 3600, Coeffs: 12}
	want := s.Apply(pts)
	for i := 0; i < 20; i++ {
		if got := s.Apply(pts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Apply %d differs from the first", i+2)
		}
	}
	// The last six windows are the six devices' final hours, in the
	// order the devices first appear.
	var first []int32
	seen := map[int32]bool{}
	for _, p := range pts {
		if !seen[p.Attrs[0]] {
			seen[p.Attrs[0]] = true
			first = append(first, p.Attrs[0])
		}
	}
	tail := want[len(want)-len(first):]
	for i, dev := range first {
		if tail[i].Attrs[0] != dev {
			t.Fatalf("final window %d is device %d, want %d (first-seen order %v)", i, tail[i].Attrs[0], dev, first)
		}
	}
}

// DFT is the O(n^2) discrete Fourier transform, FFT's test oracle.
func DFT(re, im []float64) (outRe, outIm []float64) {
	n := len(re)
	outRe = make([]float64, n)
	outIm = make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			outRe[k] += re[t]*c - im[t]*s
			outIm[k] += re[t]*s + im[t]*c
		}
	}
	return outRe, outIm
}
