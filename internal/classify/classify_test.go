package classify

import (
	"math"
	"math/rand/v2"
	"testing"

	"macrobase/internal/core"
)

func TestZScoreKnown(t *testing.T) {
	tr := ZScoreTrainer(0)
	s, err := tr([][]float64{{2}, {4}, {4}, {4}, {5}, {5}, {7}, {9}})
	if err != nil {
		t.Fatal(err)
	}
	z := s.(*ZScore)
	if math.Abs(z.Mean-5) > 1e-12 {
		t.Errorf("mean = %v", z.Mean)
	}
	if got := s.Score([]float64{5}); got != 0 {
		t.Errorf("score at mean = %v", got)
	}
	if s.Score([]float64{9}) <= s.Score([]float64{6}) {
		t.Error("score not monotone in distance")
	}
}

func TestZScoreNotRobust(t *testing.T) {
	// One wild point inflates the std so the planted outlier looks
	// ordinary — the failure Figure 3 illustrates.
	sample := [][]float64{{0}, {1}, {-1}, {0.5}, {-0.5}, {1e6}}
	s, err := ZScoreTrainer(0)(sample)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Score([]float64{50}); got > 1 {
		t.Errorf("contaminated z-score of 50 = %v, expected masked (<1)", got)
	}
}

func TestMADRobust(t *testing.T) {
	sample := [][]float64{{0}, {1}, {-1}, {0.5}, {-0.5}, {1e6}}
	s, err := MADTrainer(0)(sample)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Score([]float64{50}); got < 10 {
		t.Errorf("MAD score of 50 = %v, expected large despite contamination", got)
	}
}

func TestMADZeroScale(t *testing.T) {
	s, err := MADTrainer(0)([][]float64{{3}, {3}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Score([]float64{3}); got != 0 {
		t.Errorf("score at median = %v", got)
	}
	if got := s.Score([]float64{4}); !math.IsInf(got, 1) {
		t.Errorf("score off constant sample = %v, want +Inf", got)
	}
}

func TestTrainersRejectEmpty(t *testing.T) {
	for _, tr := range []Trainer{ZScoreTrainer(0), MADTrainer(0), AutoTrainer(1, 1), AutoTrainer(3, 1)} {
		if _, err := tr(nil); err == nil {
			t.Error("expected error on empty sample")
		}
	}
}

func genStream(n int, outlierFrac float64, seed uint64) []core.Point {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	pts := make([]core.Point, n)
	for i := range pts {
		v := 10 + rng.NormFloat64()*10
		if rng.Float64() < outlierFrac {
			v = 200 + rng.NormFloat64()*5
		}
		pts[i] = core.Point{Metrics: []float64{v}}
	}
	return pts
}

func TestStreamingClassifierDetectsOutliers(t *testing.T) {
	s := NewStreaming(StreamingConfig{Dims: 1, Percentile: 0.99, warmupPoints: 500, RetrainEvery: 5000, Seed: 3}, nil)
	pts := genStream(50_000, 0.01, 4)
	var labeled []core.LabeledPoint
	for i := 0; i < len(pts); i += 1000 {
		labeled = s.ClassifyBatch(labeled, pts[i:i+1000])
	}
	if s.model == nil {
		t.Fatal("model never trained")
	}
	if s.Retrains < 2 {
		t.Errorf("retrains = %d, want >= 2", s.Retrains)
	}
	// Points from the outlier distribution (>150) should mostly be
	// labeled outliers after warmup; inliers mostly not.
	var outHit, outTot, inHit, inTot int
	for i := 10_000; i < len(labeled); i++ {
		lp := &labeled[i]
		if lp.Metrics[0] > 150 {
			outTot++
			if lp.Label == core.Outlier {
				outHit++
			}
		} else {
			inTot++
			if lp.Label == core.Outlier {
				inHit++
			}
		}
	}
	if recall := float64(outHit) / float64(outTot); recall < 0.9 {
		t.Errorf("outlier recall = %.3f", recall)
	}
	if fpr := float64(inHit) / float64(inTot); fpr > 0.05 {
		t.Errorf("false positive rate = %.3f", fpr)
	}
}

func TestStreamingWarmupLabelsInlier(t *testing.T) {
	s := NewStreaming(StreamingConfig{Dims: 1, warmupPoints: 1000, Seed: 5}, nil)
	pts := genStream(100, 0, 6)
	labeled := s.ClassifyBatch(nil, pts)
	for i := range labeled {
		if labeled[i].Label != core.Inlier {
			t.Fatal("pre-warmup point labeled outlier")
		}
	}
	if s.model != nil {
		t.Error("model trained before warmup")
	}
}

// TestStreamingAdaptsToShift: after the distribution moves, decayed
// retraining must re-center the model (the Figure 5 behavior).
func TestStreamingAdaptsToShift(t *testing.T) {
	s := NewStreaming(StreamingConfig{
		Dims: 1, Percentile: 0.99, warmupPoints: 500,
		RetrainEvery: 2000, DecayRate: 0.5, Seed: 7,
	}, nil)
	rng := rand.New(rand.NewPCG(8, 9))
	feed := func(mu float64, n int) []core.LabeledPoint {
		pts := make([]core.Point, n)
		for i := range pts {
			pts[i] = core.Point{Metrics: []float64{mu + rng.NormFloat64()*10}}
		}
		var out []core.LabeledPoint
		for i := 0; i < n; i += 1000 {
			out = s.ClassifyBatch(out, pts[i:i+1000])
			s.Decay()
		}
		return out
	}
	feed(10, 20_000)
	// Shift the whole distribution to 400: after adaptation the new
	// regime must not be flagged wholesale.
	second := feed(400, 40_000)
	tail := second[len(second)-5000:]
	flagged := 0
	for i := range tail {
		if tail[i].Label == core.Outlier {
			flagged++
		}
	}
	if rate := float64(flagged) / float64(len(tail)); rate > 0.1 {
		t.Errorf("model failed to adapt: %.3f of shifted points still outliers", rate)
	}
	m := s.model.(*MAD)
	if math.Abs(m.Median-400) > 50 {
		t.Errorf("median = %v, want near 400", m.Median)
	}
}

func TestFitBatch(t *testing.T) {
	pts := genStream(20_000, 0.01, 10)
	fitted, scores, err := FitBatch(pts, MADTrainer(0), FitBatchConfig{Percentile: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(pts) {
		t.Fatalf("scores len = %d", len(scores))
	}
	labeled := fitted.ClassifyBatch(nil, pts)
	outliers := 0
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			outliers++
		}
	}
	rate := float64(outliers) / float64(len(pts))
	if rate < 0.005 || rate > 0.02 {
		t.Errorf("outlier rate = %.4f, want ~0.01", rate)
	}
	// Sampled training should land near the full fit.
	sampled, _, err := FitBatch(pts, MADTrainer(0), FitBatchConfig{Percentile: 0.99, TrainSampleSize: 1000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sampled.Threshold-fitted.Threshold) > fitted.Threshold*0.5 {
		t.Errorf("sampled threshold %v far from full %v", sampled.Threshold, fitted.Threshold)
	}
}

func TestRuleAndHybrid(t *testing.T) {
	rule := &Rule{
		Name:    "power>100",
		Outlier: func(p *core.Point) bool { return p.Metrics[0] > 100 },
	}
	pts := []core.Point{{Metrics: []float64{50}}, {Metrics: []float64{150}}}
	labeled := rule.ClassifyBatch(nil, pts)
	if labeled[0].Label != core.Inlier || labeled[1].Label != core.Outlier {
		t.Fatalf("rule labels wrong: %v", labeled)
	}
	if labeled[0].Score != 0 || labeled[1].Score != 1 {
		t.Errorf("rule scores = %v, %v", labeled[0].Score, labeled[1].Score)
	}

	always := &Rule{Name: "never", Outlier: func(*core.Point) bool { return false }}
	hybrid := NewHybridOr(always, rule)
	merged := hybrid.ClassifyBatch(nil, pts)
	if merged[1].Label != core.Outlier {
		t.Error("hybrid OR missed rule outlier")
	}
	if merged[0].Label != core.Inlier {
		t.Error("hybrid OR fabricated outlier")
	}
	if merged[1].Score != 1 {
		t.Errorf("hybrid score = %v, want max member score", merged[1].Score)
	}
}

func TestStreamingDriftCorrection(t *testing.T) {
	// Small retrain interval off: rely on drift detection to fix a
	// stale threshold when outlier rate explodes.
	s := NewStreaming(StreamingConfig{
		Dims: 1, Percentile: 0.99, warmupPoints: 500,
		RetrainEvery: 1 << 30, // never retrain on schedule
		driftZ:       3, driftMinPoints: 500, Seed: 13,
	}, nil)
	rng := rand.New(rand.NewPCG(14, 15))
	batch := make([]core.Point, 1000)
	for round := 0; round < 10; round++ {
		for i := range batch {
			batch[i] = core.Point{Metrics: []float64{10 + rng.NormFloat64()*10}}
		}
		s.ClassifyBatch(nil, batch)
	}
	t0 := s.Threshold()
	// Shift upward; without retraining, everything becomes "outlier"
	// until drift correction raises the threshold.
	var lastBatch []core.LabeledPoint
	for round := 0; round < 40; round++ {
		for i := range batch {
			batch[i] = core.Point{Metrics: []float64{40 + rng.NormFloat64()*10}}
		}
		lastBatch = s.ClassifyBatch(nil, batch)
	}
	if s.Threshold() <= t0 {
		t.Errorf("drift correction did not raise threshold: %v -> %v", t0, s.Threshold())
	}
	flagged := 0
	for i := range lastBatch {
		if lastBatch[i].Label == core.Outlier {
			flagged++
		}
	}
	if rate := float64(flagged) / float64(len(lastBatch)); rate > 0.2 {
		t.Errorf("post-drift outlier rate = %.3f", rate)
	}
}

// TestClassifyBatchZeroAlloc pins the allocation-free per-point hot
// path: once the model is trained, the reservoirs are full, and the
// destination buffer has capacity, classifying a batch must not touch
// the allocator — reservoir admissions recycle the displaced
// resident's metric buffer instead of copying per point.
func TestClassifyBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	s := NewStreaming(StreamingConfig{
		Dims: 1, ReservoirSize: 256, ScoreReservoirSize: 256,
		warmupPoints: 256, RetrainEvery: 1 << 30, driftZ: -1, Seed: 3,
	}, nil)
	batch := make([]core.Point, 512)
	metrics := make([]float64, len(batch))
	for i := range batch {
		metrics[i] = rng.NormFloat64()
		batch[i] = core.Point{Metrics: metrics[i : i+1]}
	}
	dst := make([]core.LabeledPoint, 0, len(batch))
	// Warm up: train the model, fill both reservoirs, and let every
	// reservoir slot's backing buffer reach its steady-state capacity.
	for i := 0; i < 20; i++ {
		dst = s.ClassifyBatch(dst[:0], batch)
	}
	if s.model == nil {
		t.Fatal("model not trained after warmup")
	}
	n := testing.AllocsPerRun(50, func() {
		dst = s.ClassifyBatch(dst[:0], batch)
	})
	if n != 0 {
		t.Fatalf("ClassifyBatch allocates %v allocs/run, want 0", n)
	}
}

// TestScoreSampleExport: the sample must be a copy of the decayed
// score-reservoir sample (into the caller's buffer) returned with the
// reservoir weight, and an untrained classifier exports an empty
// sample, which a threshold round skips.
func TestScoreSampleExport(t *testing.T) {
	s := NewStreaming(StreamingConfig{Dims: 1, warmupPoints: 200, Seed: 3}, nil)

	empty, w := s.ScoreSample(nil)
	if len(empty) != 0 || w != 0 {
		t.Errorf("untrained sample not empty: %d scores, weight %v", len(empty), w)
	}

	s.ClassifyBatch(nil, genStream(5_000, 0.01, 3))
	buf := make([]float64, 0, 8)
	scores, weight := s.ScoreSample(buf)
	if len(scores) == 0 || weight <= 0 {
		t.Fatalf("trained sample empty: %d scores, weight %v", len(scores), weight)
	}
	// Warmup points are admitted before the model trains, so the score
	// reservoir holds fewer observations than the stream delivered.
	if want := float64(len(scores)); weight < want {
		t.Errorf("weight %v below sample size %v (no decay has run)", weight, want)
	}
	// The export is a copy: mutating it must not corrupt the reservoir.
	for i := range scores {
		scores[i] = -1
	}
	again, _ := s.ScoreSample(nil)
	for _, v := range again {
		if v == -1 {
			t.Fatal("sample aliases the reservoir")
		}
	}
}

// TestSetGlobalThreshold: an external cutoff overrides the local
// estimate, suppresses drift-driven recomputation, and is dropped at
// the next retrain (a new model's scores are not comparable to the old
// cutoff).
func TestSetGlobalThreshold(t *testing.T) {
	s := NewStreaming(StreamingConfig{
		Dims: 1, Percentile: 0.99, warmupPoints: 200,
		RetrainEvery: 100_000, driftZ: 3, driftMinPoints: 500, Seed: 9,
	}, nil)
	s.ClassifyBatch(nil, genStream(3_000, 0.01, 5))
	if s.ThresholdIsGlobal() {
		t.Fatal("locally estimated threshold reported as global")
	}

	// Install an absurdly low global cutoff: everything becomes an
	// outlier. Without the external flag, drift detection would snap
	// the threshold back within driftMinPoints; with it, the cutoff
	// must hold.
	s.SetGlobalThreshold(0.001)
	if !s.ThresholdIsGlobal() || s.Threshold() != 0.001 {
		t.Fatalf("global cutoff not installed: threshold %v, global %v", s.Threshold(), s.ThresholdIsGlobal())
	}
	labeled := s.ClassifyBatch(nil, genStream(2_000, 0, 6))
	if s.Threshold() != 0.001 {
		t.Errorf("drift detection overrode the global cutoff: threshold now %v", s.Threshold())
	}
	outliers := 0
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			outliers++
		}
	}
	if s.driftSeen != len(labeled) || s.driftOutliers != outliers {
		t.Errorf("drift counters %d/%d inconsistent with %d/%d", s.driftOutliers, s.driftSeen, outliers, len(labeled))
	}

	// Force a retrain: the external cutoff must give way to a fresh
	// local estimate.
	s.cfg.RetrainEvery = 100
	s.ClassifyBatch(nil, genStream(200, 0, 7))
	if s.ThresholdIsGlobal() {
		t.Error("retrain kept the stale global cutoff")
	}
	if s.Threshold() == 0.001 {
		t.Error("retrain did not re-estimate the threshold")
	}
}
