package classify

import (
	"math"

	"macrobase/internal/core"
	"macrobase/internal/sample"
	"macrobase/internal/stats"
)

// StreamingConfig parameterizes the streaming MDP classifier. Zero
// fields take the paper's §6 defaults: reservoirs of 10K, 99th
// percentile cutoff, retraining every 100K points.
type StreamingConfig struct {
	// Dims is the number of metric dimensions (required).
	Dims int
	// ReservoirSize is the capacity of the input-sample ADR used for
	// retraining (default 10_000).
	ReservoirSize int
	// ScoreReservoirSize is the capacity of the score ADR used for
	// percentile estimation (default 10_000; a reservoir of 20K
	// yields a 1% quantile approximation with 99% probability,
	// paper §4.2).
	ScoreReservoirSize int
	// DecayRate is the exponential decay applied to both reservoirs
	// on each Decay tick (default 0.01).
	DecayRate float64
	// Percentile is the score quantile above which points are
	// labeled outliers (default 0.99, i.e. target 1% outliers).
	Percentile float64
	// RetrainEvery retrains the model and recomputes the threshold
	// after this many points (default 100_000).
	RetrainEvery int
	// RetrainOffset advances the schedule once: the first retrain after
	// warmup counts as if RetrainOffset points had already elapsed, so
	// the next one fires that much earlier, after which the RetrainEvery
	// period resumes. The sharded engine staggers its per-shard replicas
	// with offsets of shard*(RetrainEvery/shards) so P shards never
	// retrain — and drop their coordinated global threshold — in
	// lockstep. 0 (the default) leaves the schedule unshifted.
	RetrainOffset int
	// Seed drives reservoir sampling and model fitting.
	Seed uint64

	// The fields below keep their defaults outside this package's
	// tests.

	// warmupPoints delays the first training until this many points
	// have been observed (default min(1000, ReservoirSize)).
	warmupPoints int
	// driftZ, when positive, enables quantile-drift detection: if
	// the observed outlier rate deviates from the target by more
	// than driftZ binomial standard errors, the threshold is
	// recomputed immediately (paper §4.2 footnote 4). Default 3;
	// negative disables.
	driftZ float64
	// driftMinPoints is the minimum observation count before a
	// drift test is applied (default 2000).
	driftMinPoints int
}

func (c StreamingConfig) withDefaults() StreamingConfig {
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 10_000
	}
	if c.ScoreReservoirSize <= 0 {
		c.ScoreReservoirSize = 10_000
	}
	if c.DecayRate == 0 {
		c.DecayRate = 0.01
	}
	if c.Percentile == 0 {
		c.Percentile = 0.99
	}
	if c.RetrainEvery <= 0 {
		c.RetrainEvery = 100_000
	}
	if c.warmupPoints <= 0 {
		c.warmupPoints = 1000
		if c.warmupPoints > c.ReservoirSize {
			c.warmupPoints = c.ReservoirSize
		}
	}
	if c.driftZ == 0 {
		c.driftZ = 3
	}
	if c.driftMinPoints <= 0 {
		c.driftMinPoints = 2000
	}
	if c.RetrainOffset < 0 {
		c.RetrainOffset = 0
	}
	if c.RetrainOffset >= c.RetrainEvery {
		c.RetrainOffset %= c.RetrainEvery
	}
	return c
}

// Streaming is MDP's streaming classification operator (paper §4.2,
// Figure 2): an ADR over the input metrics feeds periodic retraining
// of a robust scorer, and a second ADR over the produced scores feeds
// percentile threshold estimation. Decay damps both reservoirs so the
// model tracks distribution shift.
type Streaming struct {
	cfg     StreamingConfig
	trainer Trainer

	inputRes *sample.ADR[[]float64]
	scoreRes *sample.ADR[float64]

	model      Scorer
	threshold  float64
	sinceTrain int
	// retrainPhase is the unconsumed RetrainOffset: folded into
	// sinceTrain at the next retrain, then zero forever after.
	retrainPhase int
	// external marks the threshold as coordinator-supplied
	// (SetGlobalThreshold) rather than locally estimated. While set,
	// drift detection does not recompute the threshold — under a global
	// cutoff a skewed shard's outlier rate legitimately deviates from
	// the target percentile, and a local recompute would thrash against
	// the coordinator. Retraining clears it: scores from a new model are
	// not comparable to a cutoff computed over the old model's scores.
	external bool

	// Drift counters since the last threshold computation.
	driftSeen     int
	driftOutliers int

	// quantScratch is the reusable copy buffer for threshold
	// re-estimation (stats.Quantile permutes its input, and the score
	// reservoir must stay intact): drift corrections can fire often on
	// shifting streams, and an 80KB allocation per correction was
	// measurable on the ingest profile.
	quantScratch []float64

	// offload, when set, runs a model fit to completion (see
	// SetOffload).
	offload func(work func())

	// Retrains counts model fits, exposed for tests and diagnostics.
	Retrains int
}

// NewStreaming returns a streaming classifier that fits models with
// trainer. A nil trainer selects AutoTrainer (MAD for one metric,
// MCD otherwise).
func NewStreaming(cfg StreamingConfig, trainer Trainer) *Streaming {
	cfg = cfg.withDefaults()
	if trainer == nil {
		trainer = AutoTrainer(cfg.Dims, cfg.Seed)
	}
	return &Streaming{
		cfg:          cfg,
		trainer:      trainer,
		inputRes:     sample.NewADR[[]float64](cfg.ReservoirSize, cfg.DecayRate, sample.NewRNG(cfg.Seed+1)),
		scoreRes:     sample.NewADR[float64](cfg.ScoreReservoirSize, cfg.DecayRate, sample.NewRNG(cfg.Seed+2)),
		model:        nil,
		retrainPhase: cfg.RetrainOffset,
	}
}

// SetOffload implements core.Offloader: model fits go through run,
// which must return only once the work it is given has. During a fit
// the classifier is part-way through a batch; Threshold and
// ThresholdIsGlobal stay readable from the goroutine that called
// ClassifyBatch (the fit reads the input reservoir and nothing else),
// every other method must wait for the batch to end.
func (s *Streaming) SetOffload(run func(work func())) { s.offload = run }

// fit trains a model on the input reservoir, through the offload
// function when one is set.
func (s *Streaming) fit() (model Scorer, err error) {
	sample := s.inputRes.Items()
	if s.offload == nil {
		return s.trainer(sample)
	}
	s.offload(func() { model, err = s.trainer(sample) })
	return model, err
}

// Threshold returns the current outlier score cutoff.
func (s *Streaming) Threshold() float64 { return s.threshold }

// ThresholdIsGlobal reports whether the current cutoff was installed by
// SetGlobalThreshold (cross-shard coordination) rather than estimated
// from the local score reservoir.
func (s *Streaming) ThresholdIsGlobal() bool { return s.external }

// ScoreSample implements core.ThresholdCoordinable: it appends the
// decayed score-reservoir sample into buf[:0] (pass the previous
// round's scores to avoid reallocating) and returns it with the
// reservoir's total decayed weight. An untrained or empty classifier
// returns an empty sample.
func (s *Streaming) ScoreSample(buf []float64) (scores []float64, weight float64) {
	return append(buf[:0], s.scoreRes.Items()...), s.scoreRes.Weight()
}

// SetGlobalThreshold installs an externally coordinated score cutoff,
// overriding the local percentile estimate until the next retrain (see
// the external field for why drift detection pauses). The drift
// counters restart so they count against the new cutoff.
func (s *Streaming) SetGlobalThreshold(t float64) {
	s.threshold = t
	s.external = true
	s.driftSeen, s.driftOutliers = 0, 0
}

// ClassifyBatch implements core.Classifier. Points arriving before the
// first model is trained are labeled inliers with score 0.
func (s *Streaming) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	for i := range batch {
		p := &batch[i]
		m := p.Metrics
		// Admission-gated copy: only the rare admitted point is copied
		// into the reservoir, reusing the displaced resident's backing
		// array, so the per-point path never touches the allocator.
		if slot, ok := s.inputRes.OfferSlot(1); ok {
			items := s.inputRes.Items()
			items[slot] = append(items[slot][:0], m...)
		}
		s.sinceTrain++

		if s.model == nil {
			if s.inputRes.Len() >= s.cfg.warmupPoints {
				s.retrain()
			}
			if s.model == nil {
				dst = append(dst, core.LabeledPoint{Point: *p, Score: 0, Label: core.Inlier})
				continue
			}
		} else if s.sinceTrain >= s.cfg.RetrainEvery {
			s.retrain()
		}

		score := s.model.Score(m)
		s.scoreRes.Observe(score)
		label := core.Inlier
		if score > s.threshold {
			label = core.Outlier
			s.driftOutliers++
		}
		s.driftSeen++
		dst = append(dst, core.LabeledPoint{Point: *p, Score: score, Label: label})
		s.maybeDriftCorrect()
	}
	return dst
}

// retrain fits a fresh model on the input reservoir and recomputes the
// score threshold. Training failures (e.g. degenerate samples) keep
// the previous model.
func (s *Streaming) retrain() {
	s.sinceTrain = s.retrainPhase
	s.retrainPhase = 0
	model, err := s.fit()
	if err != nil {
		return
	}
	s.model = model
	s.Retrains++
	// The recomputeThreshold below also drops any externally
	// coordinated cutoff: the global threshold was a quantile of the
	// old model's scores, which the new model's scores are not
	// comparable to. The local estimate holds until the coordinator's
	// next round.
	// Rescore the training sample to seed the threshold when the
	// score reservoir is empty or stale after a model change.
	if s.scoreRes.Len() < s.cfg.warmupPoints/2 {
		for _, v := range s.inputRes.Items() {
			s.scoreRes.Observe(model.Score(v))
		}
	}
	s.recomputeThreshold()
}

// recomputeThreshold re-estimates the percentile cutoff from the score
// reservoir and resets the drift counters. The result is a local
// estimate, so any external (coordinated) cutoff is superseded.
func (s *Streaming) recomputeThreshold() {
	s.external = false
	items := s.scoreRes.Items()
	if len(items) == 0 {
		s.threshold = math.Inf(1)
		return
	}
	if cap(s.quantScratch) < len(items) {
		s.quantScratch = make([]float64, len(items))
	}
	cp := s.quantScratch[:len(items)]
	copy(cp, items)
	s.threshold = stats.Quantile(cp, s.cfg.Percentile)
	s.driftSeen, s.driftOutliers = 0, 0
}

// maybeDriftCorrect applies the binomial proportion test of paper
// footnote 4: a sustained deviation of the observed outlier rate from
// the target percentile triggers an immediate threshold refresh.
func (s *Streaming) maybeDriftCorrect() {
	if s.external || s.cfg.driftZ <= 0 || s.driftSeen < s.cfg.driftMinPoints {
		return
	}
	q := 1 - s.cfg.Percentile
	n := float64(s.driftSeen)
	rate := float64(s.driftOutliers) / n
	se := math.Sqrt(q * (1 - q) / n)
	if math.Abs(rate-q) > s.cfg.driftZ*se {
		s.recomputeThreshold()
	}
}

// Decay implements core.Decayable: both reservoirs are damped so that
// retraining and thresholding favor recent points (paper Figure 2).
func (s *Streaming) Decay() {
	s.inputRes.Decay()
	s.scoreRes.Decay()
}

var _ core.Classifier = (*Streaming)(nil)
var _ core.Decayable = (*Streaming)(nil)
var _ core.Offloader = (*Streaming)(nil)
var _ core.ThresholdCoordinable = (*Streaming)(nil)
