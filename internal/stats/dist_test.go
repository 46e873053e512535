package stats

import (
	"math"
	"testing"
)

func TestNormalCDFKnown(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-3, 0.0013498980316301035},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.0001; p < 1; p += 0.0107 {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-10 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if got := NormalQuantile(0.975); math.Abs(got-1.959963984540054) > 1e-9 {
		t.Errorf("z_.975 = %v", got)
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile boundary values wrong")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestGammaPQ(t *testing.T) {
	// P(1, x) = 1 - exp(-x), by series below x = 2 and by continued
	// fraction from there.
	for _, x := range []float64{0.5, 1, 2, 5} {
		if got, want := GammaP(1, x), 1-math.Exp(-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	if GammaP(2, 0) != 0 {
		t.Error("boundary at x=0 wrong")
	}
	if !math.IsNaN(GammaP(-1, 1)) {
		t.Error("negative a should be NaN")
	}
}

func TestChiSquareKnown(t *testing.T) {
	// Reference values from standard tables.
	cases := []struct{ p, k, want float64 }{
		{0.5, 1, 0.454936423119573},
		{0.5, 2, 1.3862943611198906},
		{0.95, 2, 5.991464547107979},
		{0.95, 10, 18.307038053275146},
		{0.99, 5, 15.08627246938899},
	}
	for _, c := range cases {
		if got := ChiSquareQuantile(c.p, c.k); math.Abs(got-c.want) > 1e-6*(1+c.want) {
			t.Errorf("ChiSquareQuantile(%v, %v) = %v, want %v", c.p, c.k, got, c.want)
		}
	}
}

func TestChiSquareRoundTrip(t *testing.T) {
	for _, k := range []float64{1, 2, 3, 7, 15, 64} {
		for p := 0.01; p < 1; p += 0.07 {
			x := ChiSquareQuantile(p, k)
			if got := ChiSquareCDF(x, k); math.Abs(got-p) > 1e-8 {
				t.Fatalf("CDF(Quantile(%v, k=%v)) = %v", p, k, got)
			}
		}
	}
	if ChiSquareQuantile(0, 3) != 0 {
		t.Error("p=0 should give 0")
	}
	if !math.IsInf(ChiSquareQuantile(1, 3), 1) {
		t.Error("p=1 should give +Inf")
	}
}
