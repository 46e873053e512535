// Package classify implements MDP's classification stage (paper §4):
// robust scorers (MAD, MCD) and the non-robust Z-score baseline,
// percentile thresholding over an ADR of scores with binomial drift
// detection, rule-based and hybrid classifiers, and the streaming
// classifier that retrains its model from an ADR of the input.
package classify

import (
	"errors"
	"math"

	"macrobase/internal/mcd"
	"macrobase/internal/stats"
)

// Scorer assigns an outlier score to a metric vector; larger scores
// are more outlying. Scorers are trained offline (from a reservoir
// sample or a full pass) and applied per point.
type Scorer interface {
	Score(metrics []float64) float64
}

// Trainer fits a Scorer to a training sample of metric vectors.
// Trainers must not retain or mutate the vectors.
type Trainer func(sample [][]float64) (Scorer, error)

// ErrEmptySample is returned by trainers given no data.
var ErrEmptySample = errors.New("classify: empty training sample")

// ZScore scores a single metric dimension by standard deviations from
// the mean. It is the paper's non-robust baseline (Figure 3): a single
// extreme value can skew both mean and deviation without bound.
type ZScore struct {
	Dim  int
	Mean float64
	Std  float64
}

// Score implements Scorer.
func (z *ZScore) Score(m []float64) float64 {
	if z.Std == 0 {
		if m[z.Dim] == z.Mean {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(m[z.Dim]-z.Mean) / z.Std
}

// ZScoreTrainer fits a ZScore on metric dimension dim.
func ZScoreTrainer(dim int) Trainer {
	return func(sample [][]float64) (Scorer, error) {
		if len(sample) == 0 {
			return nil, ErrEmptySample
		}
		var r stats.Running
		for _, v := range sample {
			r.Add(v[dim])
		}
		return &ZScore{Dim: dim, Mean: r.Mean(), Std: r.StdDev()}, nil
	}
}

// MAD scores a single metric dimension by its absolute distance from
// the sample median in units of the (consistency-scaled) median
// absolute deviation — the robust Z-score variant MDP uses for
// univariate queries (paper §4.1).
type MAD struct {
	Dim    int
	Median float64
	// Scale is the consistency-scaled MAD; scores are comparable to
	// Z-scores under normality.
	Scale float64
}

// Score implements Scorer.
func (m *MAD) Score(x []float64) float64 {
	if m.Scale == 0 {
		if x[m.Dim] == m.Median {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(x[m.Dim]-m.Median) / m.Scale
}

// MADTrainer fits a MAD scorer on metric dimension dim (stats.FitMAD,
// mean-absolute-deviation fallback included). Training copies the
// dimension out of the sample, so the input is not disturbed.
func MADTrainer(dim int) Trainer {
	return func(sample [][]float64) (Scorer, error) {
		if len(sample) == 0 {
			return nil, ErrEmptySample
		}
		xs := make([]float64, 2*len(sample))
		xs, work := xs[:len(sample)], xs[len(sample):]
		for i, v := range sample {
			xs[i] = v[dim]
		}
		copy(work, xs)
		med, scale := stats.FitMAD(xs, work)
		return &MAD{Dim: dim, Median: med, Scale: scale}, nil
	}
}

// MCDScorer adapts a fitted MCD estimate to the Scorer interface; the
// score is the Mahalanobis distance to the robust location/scatter.
type MCDScorer struct {
	Est *mcd.Estimate
}

// Score implements Scorer.
func (s *MCDScorer) Score(m []float64) float64 { return s.Est.Score(m) }

// MCDTrainer fits FastMCD with the given configuration.
func MCDTrainer(cfg mcd.Config) Trainer {
	return func(sample [][]float64) (Scorer, error) {
		if len(sample) == 0 {
			return nil, ErrEmptySample
		}
		est, err := mcd.Fit(sample, cfg)
		if err != nil {
			return nil, err
		}
		return &MCDScorer{Est: est}, nil
	}
}

// AutoTrainer selects MDP's default model for the query shape: MAD for
// a single metric, FastMCD for multiple metrics (paper §4.1).
func AutoTrainer(dims int, seed uint64) Trainer {
	if dims <= 1 {
		return MADTrainer(0)
	}
	return MCDTrainer(mcd.Config{Seed: seed})
}
