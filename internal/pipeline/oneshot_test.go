package pipeline

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"macrobase/internal/classify"
	"macrobase/internal/core"
)

// classifyOneShotRescoring is the one-shot classify stage as it was
// composed before it labeled from the fit's scores: fit, then score every
// point again through ClassifyBatch. It is the oracle ClassifyOneShot is
// held to.
func classifyOneShotRescoring(pts []core.Point, cfg Config) ([]core.LabeledPoint, error) {
	cfg = cfg.withDefaults()
	fitted, _, err := classify.FitBatch(pts, classify.AutoTrainer(cfg.Dims, cfg.Seed), classify.FitBatchConfig{
		Percentile:      cfg.Percentile,
		TrainSampleSize: cfg.TrainSampleSize,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return fitted.ClassifyBatch(make([]core.LabeledPoint, 0, len(pts)), pts), nil
}

// TestClassifyOneShotMatchesRescoring: labeling from FitBatch's scores
// gives every point the score bits and label that scoring it again does,
// for a MAD fit (one metric) and an MCD fit (several), on all the data
// and on a training sample.
func TestClassifyOneShotMatchesRescoring(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	points := func(dims int) []core.Point {
		pts := make([]core.Point, 5000)
		for i := range pts {
			m := make([]float64, dims)
			for j := range m {
				m[j] = rng.NormFloat64() * float64(j+1)
				if i%50 == 0 {
					m[j] += 8
				}
			}
			pts[i] = core.Point{Metrics: m, Attrs: []int32{int32(i % 17)}}
		}
		return pts
	}
	for _, tc := range []struct {
		name string
		dims int
		cfg  Config
	}{
		{"mad", 1, Config{Seed: 3}},
		{"mcd", 3, Config{Seed: 4}},
		{"mcd-sampled", 3, Config{Seed: 5, TrainSampleSize: 1000, Percentile: 0.95}},
	} {
		pts := points(tc.dims)
		tc.cfg.Dims = tc.dims
		got, err := ClassifyOneShot(pts, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := classifyOneShotRescoring(pts, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d labeled points, rescoring labels %d", tc.name, len(got), len(want))
		}
		outliers := 0
		for i := range got {
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) || got[i].Label != want[i].Label ||
				!reflect.DeepEqual(got[i].Point, want[i].Point) {
				t.Fatalf("%s: point %d: labeled %+v, rescoring labels %+v", tc.name, i, got[i], want[i])
			}
			if got[i].Label == core.Outlier {
				outliers++
			}
		}
		if outliers == 0 || outliers == len(got) {
			t.Fatalf("%s: %d outliers of %d: the threshold separates nothing", tc.name, outliers, len(got))
		}
	}
}
