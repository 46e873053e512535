package experiments

import (
	"math"
	"testing"

	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
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

func TestRunParallelUnionAndScaling(t *testing.T) {
	d := deviceWorkload(100_000)
	single, err := pipeline.RunOneShot(d.Points, pipeline.Config{Dims: 1, MinSupport: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(d.Points, pipeline.Config{Dims: 1, MinSupport: 0.05, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.PerPartition) != 4 {
		t.Fatalf("partitions = %d", len(par.PerPartition))
	}
	_, _, f1Single := d.ExplanationF1(explainedDevices(single.Explanations))
	_, _, f1Par := d.ExplanationF1(explainedDevices(par.Explanations))
	if f1Par < f1Single-0.3 {
		t.Errorf("parallel F1 %.3f collapsed vs single %.3f", f1Par, f1Single)
	}
	if _, err := RunParallel(d.Points, pipeline.Config{Dims: 1}, 0); err == nil {
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
	slow, err := pipeline.RunOneShot(d.Points, pipeline.Config{Dims: 1, MinSupport: 0.05, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Same planted devices recovered by both paths.
	fastSet := make(map[int32]bool)
	for _, e := range fast.Explanations {
		fastSet[e.Attr] = true
	}
	_, _, f1Fast := d.ExplanationF1(fastSet)
	_, _, f1Slow := d.ExplanationF1(explainedDevices(slow.Explanations))
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
