// Telematics: the hybrid-supervision case study of paper §6.4.
//
// CMT-like trip records carry unsupervised metrics (trip time, battery
// drain) plus an externally produced trip-quality score. The example
// composes the operators itself: it ORs two classifiers and hands the
// labeled trips to the batch explainer:
//
//	ingest -> MCD(trip_time, battery) --\
//	                                     >- logical OR -> percentile/rule -> explain
//	ingest -> rule(quality < 40) -------/
//
// Two planted issues must surface: a device type with a battery
// problem (found by the unsupervised MCD path) and an app version
// producing low quality scores with otherwise normal metrics (found
// only by the supervised rule).
//
// Run:
//
//	go run ./examples/telematics
package main

import (
	"fmt"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
)

func main() {
	enc, pts, badDevice, badVersion := gen.Trips(gen.TripsConfig{Trips: 150_000, Seed: 3})

	// Unsupervised path: MCD over the first two metrics only.
	mcdView := make([]core.Point, len(pts))
	for i, p := range pts {
		mcdView[i] = core.Point{Metrics: p.Metrics[:2], Attrs: p.Attrs}
	}
	fitted, _, err := classify.FitBatch(mcdView, classify.AutoTrainer(2, 5),
		classify.FitBatchConfig{Percentile: 0.99, TrainSampleSize: 10_000, Seed: 5})
	if err != nil {
		panic(err)
	}
	unsupervised := &metricsPrefixClassifier{inner: fitted, dims: 2}

	// Supervised path: domain rule over the diagnostic score.
	rule := &classify.Rule{
		Name:    "quality score < 40",
		Outlier: func(p *core.Point) bool { return p.Metrics[2] < 40 },
	}

	hybrid := classify.NewHybridOr(unsupervised, rule)
	labeled := hybrid.ClassifyBatch(nil, pts)
	flagged := 0
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			flagged++
		}
	}
	exps := explain.ExplainBatch(labeled, explain.BatchConfig{MinSupport: 0.02})

	enc.Decorate(exps)
	fmt.Printf("trips=%d flagged=%d explanations=%d\n\n", len(pts), flagged, len(exps))
	for i, e := range exps {
		if i >= 10 {
			break
		}
		fmt.Printf("%d. %s\n", i+1, e.String())
	}
	fmt.Printf("\nground truth: battery issue on %s, quality issue on %s\n",
		enc.Decode(badDevice), enc.Decode(badVersion))
}

// metricsPrefixClassifier lets a model trained on the first dims
// metrics classify points that carry extra (supervised) dimensions.
type metricsPrefixClassifier struct {
	inner core.Classifier
	dims  int
	buf   []core.Point
}

func (c *metricsPrefixClassifier) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	c.buf = c.buf[:0]
	for i := range batch {
		q := batch[i]
		q.Metrics = q.Metrics[:c.dims]
		c.buf = append(c.buf, q)
	}
	out := c.inner.ClassifyBatch(dst, c.buf)
	for i := range out {
		out[i].Point = batch[i]
	}
	return out
}
