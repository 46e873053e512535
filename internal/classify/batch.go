package classify

import (
	"macrobase/internal/core"
	"macrobase/internal/sample"
	"macrobase/internal/stats"
)

// Fitted is a trained scorer plus a fixed threshold: the classifier
// used by one-shot execution, where the model is trained once over the
// stored data (or a sample of it) and then applied in a single pass
// (paper §3.2 "one-shot queries").
type Fitted struct {
	Scorer    Scorer
	Threshold float64
}

// ClassifyBatch implements core.Classifier.
func (f *Fitted) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	for i := range batch {
		dst = append(dst, f.labeled(batch[i], f.Scorer.Score(batch[i].Metrics)))
	}
	return dst
}

// LabelScored is ClassifyBatch for points f.Scorer has already scored,
// as FitBatch has every point it fits on: scores[i] is batch[i]'s score,
// and each point is labeled exactly as ClassifyBatch would label it,
// without scoring it again.
func (f *Fitted) LabelScored(dst []core.LabeledPoint, batch []core.Point, scores []float64) []core.LabeledPoint {
	scores = scores[:len(batch)]
	for i := range batch {
		dst = append(dst, f.labeled(batch[i], scores[i]))
	}
	return dst
}

// labeled thresholds one scored point: a score above the threshold is an
// outlier.
func (f *Fitted) labeled(p core.Point, score float64) core.LabeledPoint {
	label := core.Inlier
	if score > f.Threshold {
		label = core.Outlier
	}
	return core.LabeledPoint{Point: p, Score: score, Label: label}
}

// FitBatchConfig controls FitBatch.
type FitBatchConfig struct {
	// Percentile is the score quantile used as threshold
	// (default 0.99).
	Percentile float64
	// TrainSampleSize, when positive, trains on a uniform sample of
	// at most this many points instead of the full data — the
	// sample-based training the paper studies in Figure 9.
	TrainSampleSize int
	// Seed drives sampling and model fitting.
	Seed uint64
}

// FitBatch trains a model over pts (optionally a sample) with trainer,
// scores every point, and returns a Fitted classifier thresholded at
// the configured percentile of the observed scores, together with the
// scores themselves (index-aligned with pts).
func FitBatch(pts []core.Point, trainer Trainer, cfg FitBatchConfig) (*Fitted, []float64, error) {
	if cfg.Percentile == 0 {
		cfg.Percentile = 0.99
	}
	vectors := make([][]float64, len(pts))
	for i := range pts {
		vectors[i] = pts[i].Metrics
	}
	train := vectors
	if cfg.TrainSampleSize > 0 && cfg.TrainSampleSize < len(vectors) {
		res := sample.NewUniform[[]float64](cfg.TrainSampleSize, sample.NewRNG(cfg.Seed+7))
		for _, v := range vectors {
			res.Observe(v)
		}
		train = res.Items()
	}
	scorer, err := trainer(train)
	if err != nil {
		return nil, nil, err
	}
	scores := make([]float64, len(pts))
	for i, v := range vectors {
		scores[i] = scorer.Score(v)
	}
	cp := make([]float64, len(scores))
	copy(cp, scores)
	threshold := stats.Quantile(cp, cfg.Percentile)
	return &Fitted{Scorer: scorer, Threshold: threshold}, scores, nil
}
