package classify

import (
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
)

// TestHybridSupervisionPipeline composes the §6.4 CMT hybrid pipeline
// from its operators, as examples/telematics does: MCD over
// (trip_time, battery) OR a rule over the quality score, explained by
// the batch explainer. The rule-only issue (bad app version) must be
// surfaced even though its metrics are normal.
func TestHybridSupervisionPipeline(t *testing.T) {
	_, pts, badDevice, badVersion := gen.Trips(gen.TripsConfig{Trips: 60_000, Seed: 11})

	// Project the metric layout for the MCD path: it must not see
	// the supervised quality dimension.
	mcdOnly := make([]core.Point, len(pts))
	for i, p := range pts {
		mcdOnly[i] = core.Point{Metrics: p.Metrics[:2], Attrs: p.Attrs, Time: p.Time}
	}
	fitted, _, err := FitBatch(mcdOnly, AutoTrainer(2, 12), FitBatchConfig{Percentile: 0.99, TrainSampleSize: 5000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	mcdAdapter := &projectingClassifier{inner: fitted, dims: 2}
	rule := &Rule{
		Name:    "low-quality-score",
		Outlier: func(p *core.Point) bool { return p.Metrics[2] < 40 },
	}
	hybrid := NewHybridOr(mcdAdapter, rule)

	exps := explain.ExplainBatch(hybrid.ClassifyBatch(nil, pts), explain.BatchConfig{MinSupport: 0.02})
	got := make(map[int32]bool)
	for i := range exps {
		for _, id := range exps[i].ItemIDs {
			got[id] = true
		}
	}
	if !got[badDevice] {
		t.Error("hybrid pipeline missed the battery-problem device (MCD path)")
	}
	if !got[badVersion] {
		t.Error("hybrid pipeline missed the low-quality version (rule path)")
	}
}

// projectingClassifier scores only the first dims metrics, so an
// unsupervised model can ignore supervised diagnostic dimensions.
type projectingClassifier struct {
	inner core.Classifier
	dims  int
	buf   []core.Point
}

func (p *projectingClassifier) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	p.buf = p.buf[:0]
	for i := range batch {
		q := batch[i]
		q.Metrics = q.Metrics[:p.dims]
		p.buf = append(p.buf, q)
	}
	out := p.inner.ClassifyBatch(dst, p.buf)
	// Restore full points so downstream stages see original metrics.
	for i := range out {
		out[i].Point = batch[i]
	}
	return out
}
