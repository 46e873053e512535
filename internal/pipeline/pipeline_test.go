package pipeline

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// deviceWorkload builds a small §6.1 device stream with a known
// misbehaving device population.
func deviceWorkload(n int) *gen.DeviceData {
	return gen.Devices(gen.DeviceConfig{
		Points:                n,
		Devices:               200,
		OutlierDeviceFraction: 0.02,
		Seed:                  42,
	})
}

// recovered extracts the explained device ids.
func recovered(exps []core.Explanation) map[int32]bool {
	out := make(map[int32]bool)
	for i := range exps {
		for _, id := range exps[i].ItemIDs {
			out[id] = true
		}
	}
	return out
}

func TestOneShotRecoversPlantedDevices(t *testing.T) {
	d := deviceWorkload(200_000)
	res, err := RunOneShot(d.Points, Config{Dims: 1, MinSupport: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points != 200_000 || res.Stats.Outliers == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	_, _, f1 := d.ExplanationF1(recovered(res.Explanations))
	if f1 < 0.95 {
		t.Errorf("one-shot F1 = %.3f, want ~1 on noiseless data", f1)
	}
}

func TestStreamingRecoversPlantedDevices(t *testing.T) {
	d := deviceWorkload(300_000)
	res, err := RunStreaming(core.NewSliceSource(d.Points), Config{
		Dims: 1, MinSupport: 0.05, Seed: 2,
		RetrainEvery: 20_000, DecayEveryPoints: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DecayTicks == 0 {
		t.Error("no decay ticks in streaming run")
	}
	_, _, f1 := d.ExplanationF1(recovered(res.Explanations))
	if f1 < 0.9 {
		t.Errorf("streaming F1 = %.3f", f1)
	}
	// Outlier rate should be in the vicinity of the 1% target.
	rate := float64(res.Stats.Outliers) / float64(res.Stats.Points)
	if rate < 0.002 || rate > 0.08 {
		t.Errorf("streaming outlier rate = %.4f", rate)
	}
}

func TestOneShotVsStreamingJaccard(t *testing.T) {
	// On a stationary stream with few attribute values, one-shot and
	// EWS should produce similar explanation sets (Table 2's
	// high-similarity regime).
	d := deviceWorkload(200_000)
	one, err := RunOneShot(d.Points, Config{Dims: 1, MinSupport: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ews, err := RunStreaming(core.NewSliceSource(d.Points), Config{
		Dims: 1, MinSupport: 0.05, Seed: 3, RetrainEvery: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if j := explain.Jaccard(one.Explanations, ews.Explanations); j < 0.5 {
		t.Errorf("jaccard = %.3f, want stationary-stream similarity", j)
	}
}

func TestOneShotMultiMetricUsesMCD(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 100, Seed: 7})
	// Add a second correlated metric.
	pts := make([]core.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = core.Point{
			Metrics: []float64{p.Metrics[0], p.Metrics[0]*0.5 + 1},
			Attrs:   p.Attrs,
			Time:    p.Time,
		}
	}
	res, err := RunOneShot(pts, Config{Dims: 2, MinSupport: 0.05, Seed: 8, TrainSampleSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1 := d.ExplanationF1(recovered(res.Explanations))
	if f1 < 0.9 {
		t.Errorf("MCD one-shot F1 = %.3f", f1)
	}
}

func TestRunParallelUnionAndScaling(t *testing.T) {
	d := deviceWorkload(100_000)
	single, err := RunOneShot(d.Points, Config{Dims: 1, MinSupport: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(d.Points, Config{Dims: 1, MinSupport: 0.05, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.PerPartition) != 4 {
		t.Fatalf("partitions = %d", len(par.PerPartition))
	}
	_, _, f1Single := d.ExplanationF1(recovered(single.Explanations))
	_, _, f1Par := d.ExplanationF1(recovered(par.Explanations))
	if f1Par < f1Single-0.3 {
		t.Errorf("parallel F1 %.3f collapsed vs single %.3f", f1Par, f1Single)
	}
	if _, err := RunParallel(d.Points, Config{Dims: 1}, 0); err == nil {
		t.Error("expected error for 0 partitions")
	}
}

func TestFastSimpleQueryMatchesPortable(t *testing.T) {
	d := deviceWorkload(100_000)
	metrics, attrs := Flatten(d.Points)
	fast := FastSimpleQuery(metrics, attrs, 0.99, 0.05, 3)
	if fast.Outliers == 0 {
		t.Fatal("fastpath found no outliers")
	}
	slow, err := RunOneShot(d.Points, Config{Dims: 1, MinSupport: 0.05, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Same planted devices recovered by both paths.
	fastSet := make(map[int32]bool)
	for _, e := range fast.Explanations {
		fastSet[e.Attr] = true
	}
	_, _, f1Fast := d.ExplanationF1(fastSet)
	_, _, f1Slow := d.ExplanationF1(recovered(slow.Explanations))
	if math.Abs(f1Fast-f1Slow) > 0.1 {
		t.Errorf("fastpath F1 %.3f != portable %.3f", f1Fast, f1Slow)
	}
	// Outlier counts should be close (both cut at the 99th
	// percentile; the portable path interpolates identically).
	if fast.Outliers != slow.Stats.Outliers {
		t.Errorf("outliers: fast %d vs portable %d", fast.Outliers, slow.Stats.Outliers)
	}
	if got := FastSimpleQuery(nil, nil, 0, 0, 0); got.Outliers != 0 {
		t.Error("empty input should be empty result")
	}
}

func TestHybridSupervisionPipeline(t *testing.T) {
	// The §6.4 CMT hybrid pipeline: MCD over (trip_time, battery) OR
	// a rule over the quality score. The rule-only issue (bad app
	// version) must be surfaced even though its metrics are normal.
	enc, pts, badDevice, badVersion := gen.Trips(gen.TripsConfig{Trips: 60_000, Seed: 11})
	_ = enc

	// Project the metric layout for the MCD path: it must not see
	// the supervised quality dimension.
	mcdOnly := make([]core.Point, len(pts))
	for i, p := range pts {
		mcdOnly[i] = core.Point{Metrics: p.Metrics[:2], Attrs: p.Attrs, Time: p.Time}
	}
	fitted, _, err := classify.FitBatch(mcdOnly, classify.AutoTrainer(2, 12), classify.FitBatchConfig{Percentile: 0.99, TrainSampleSize: 5000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	mcdAdapter := &projectingClassifier{inner: fitted, dims: 2}
	rule := &classify.Rule{
		Name:    "low-quality-score",
		Outlier: func(p *core.Point) bool { return p.Metrics[2] < 40 },
	}
	hybrid := classify.NewHybridOr(mcdAdapter, rule)

	res, err := RunOneShot(pts, Config{Dims: 3, MinSupport: 0.02, Classifier: hybrid, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	got := recovered(res.Explanations)
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

// TestDisableKnobsAreTheTwoThatChangeAnswers guards the config layers
// against growing output-identical switches again: across every config
// struct between the wire and the explainer, the exported fields named
// Disable* are exactly the two that change what a query answers.
// Reference paths that exist for tests are unexported fields, which this
// guard cannot see and no binary can set.
func TestDisableKnobsAreTheTwoThatChangeAnswers(t *testing.T) {
	var got []string
	for _, cfg := range []any{Config{}, explain.StreamingConfig{}, explain.BatchConfig{}, ingest.QueryConfig{}} {
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && strings.HasPrefix(f.Name, "Disable") {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	want := []string{
		"pipeline.Config.DisableRebalance", "pipeline.Config.DisableGlobalThreshold",
		"ingest.QueryConfig.DisableGlobalThreshold", "ingest.QueryConfig.DisableRebalance",
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("exported Disable* fields = %v, want %v", got, want)
	}
}
