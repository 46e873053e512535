package mcd

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// gauss2D samples n points from N(mu, diag(sd^2)).
func gauss2D(n int, mu [2]float64, sd float64, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{mu[0] + rng.NormFloat64()*sd, mu[1] + rng.NormFloat64()*sd}
	}
	return pts
}

func TestFitUnivariateRobustness(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var pts [][]float64
	for i := 0; i < 700; i++ {
		pts = append(pts, []float64{10 + rng.NormFloat64()*2})
	}
	for i := 0; i < 300; i++ { // 30% contamination at 70
		pts = append(pts, []float64{70 + rng.NormFloat64()*2})
	}
	est, err := Fit(pts, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean[0]-10) > 1.0 {
		t.Errorf("robust mean = %v, want ~10", est.Mean[0])
	}
	// Outliers must score much higher than inliers.
	if in, out := est.Score([]float64{10}), est.Score([]float64{70}); out < 10*in+5 {
		t.Errorf("scores: inlier %v outlier %v", in, out)
	}
}

func TestFitMultivariateRobustness(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	pts := gauss2D(400, [2]float64{0, 0}, 1, rng)
	pts = append(pts, gauss2D(100, [2]float64{20, 20}, 1, rng)...) // 20% cluster
	est, err := Fit(pts, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Hypot(est.Mean[0], est.Mean[1]) > 0.5 {
		t.Errorf("robust center = %v, want near origin", est.Mean)
	}
	inMean, outMean := 0.0, 0.0
	for i := 0; i < 400; i++ {
		inMean += est.Score(pts[i])
	}
	for i := 400; i < 500; i++ {
		outMean += est.Score(pts[i])
	}
	inMean /= 400
	outMean /= 100
	if outMean < 5*inMean {
		t.Errorf("discrimination too weak: in %v out %v", inMean, outMean)
	}
}

// TestClassicalCovarianceWouldFail documents why MCD matters: the
// non-robust covariance centered between clusters scores the planted
// outliers much less distinctly.
func TestConsistencyCalibration(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	pts := gauss2D(2000, [2]float64{0, 0}, 1, rng)
	est, err := Fit(pts, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// On clean normal data, the consistency-corrected median squared
	// distance should approximate chi2(0.5, 2) = 1.386.
	d2 := make([]float64, len(pts))
	for i, p := range pts {
		d2[i] = est.MahalanobisSq(p)
	}
	// Median via simple sort-free count.
	count := 0
	for _, v := range d2 {
		if v <= 1.3862943611 {
			count++
		}
	}
	frac := float64(count) / float64(len(d2))
	if math.Abs(frac-0.5) > 0.06 {
		t.Errorf("calibration off: %.3f of points below chi2 median", frac)
	}
}

func TestFitLargeNUsesNestedAndStaysRobust(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	pts := gauss2D(4000, [2]float64{5, -3}, 2, rng)
	pts = append(pts, gauss2D(800, [2]float64{60, 60}, 2, rng)...)
	est, err := Fit(pts, Config{Seed: 15, Trials: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean[0]-5) > 1 || math.Abs(est.Mean[1]+3) > 1 {
		t.Errorf("nested-path center = %v, want ~(5,-3)", est.Mean)
	}
}

// TestFitDeterministic: same data and seed, same bits — on whichever
// goroutine the fit runs and whatever the collector did in between,
// since every buffer a fit reads it has written first.
func TestFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	pts := gauss2D(300, [2]float64{1, 2}, 1, rng)
	fit := func() *Estimate {
		type result struct {
			est *Estimate
			err error
		}
		done := make(chan result)
		go func() {
			est, err := Fit(pts, Config{Seed: 42})
			done <- result{est, err}
		}()
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.est
	}
	a := fit()
	runtime.GC()
	b := fit()
	for i := range a.Mean {
		if a.Mean[i] != b.Mean[i] {
			t.Fatalf("non-deterministic means: %v vs %v", a.Mean, b.Mean)
		}
	}
	for i := range a.Cov.Data {
		if a.Cov.Data[i] != b.Cov.Data[i] {
			t.Fatalf("non-deterministic covariance: %v vs %v", a.Cov.Data, b.Cov.Data)
		}
	}
	if a.LogDet != b.LogDet || a.CSteps != b.CSteps {
		t.Fatalf("non-deterministic logdet/steps: %v/%d vs %v/%d", a.LogDet, a.CSteps, b.LogDet, b.CSteps)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, Config{}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("nil input: %v", err)
	}
	pts := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if _, err := Fit(pts, Config{}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("too few points: %v", err)
	}
	if _, err := Fit([][]float64{{}}, Config{}); err == nil {
		t.Error("zero-dim points should fail")
	}
}

func TestFitDegenerateDataRegularizes(t *testing.T) {
	// All points identical in one dimension: covariance singular, the
	// ridge path must still produce a usable estimate.
	rng := rand.New(rand.NewPCG(23, 24))
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), 5}
	}
	est, err := Fit(pts, Config{Seed: 25})
	if err != nil {
		t.Fatalf("degenerate fit failed: %v", err)
	}
	if math.Abs(est.Mean[1]-5) > 1e-6 {
		t.Errorf("mean = %v", est.Mean)
	}
	if s := est.Score([]float64{0, 5}); math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("score on degenerate data = %v", s)
	}
}

func TestSubsetSizeAndClone(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	pts := gauss2D(500, [2]float64{0, 0}, 1, rng)
	est, err := Fit(pts, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if est.H != 251 {
		t.Errorf("H = %d, want floor((500+2+1)/2) = 251", est.H)
	}
	c := est.Clone()
	x := []float64{1, 1}
	if c.Score(x) != est.Score(x) {
		t.Error("clone scores differ")
	}
	if est.Dims() != 2 {
		t.Errorf("dims = %d", est.Dims())
	}
}
