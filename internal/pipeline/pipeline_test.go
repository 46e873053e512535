package pipeline

import (
	"reflect"
	"slices"
	"strings"
	"testing"

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
