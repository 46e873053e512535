package classify

import (
	"reflect"
	"testing"

	"macrobase/internal/core"
)

// TestStreamingOffloadSameLabels: routing model fits through an offload
// function that runs them on another goroutine changes when nothing is
// computed and what nothing is: labels, scores and refit count match a
// classifier that fits inline.
func TestStreamingOffloadSameLabels(t *testing.T) {
	cfg := StreamingConfig{Dims: 1, Percentile: 0.99, WarmupPoints: 500, RetrainEvery: 5000, Seed: 3}
	inline := NewStreaming(cfg, nil)
	offloaded := NewStreaming(cfg, nil)
	fits := 0
	offloaded.SetOffload(func(work func()) {
		fits++
		done := make(chan struct{})
		go func() {
			defer close(done)
			work()
		}()
		<-done
	})
	pts := genStream(30_000, 0.01, 4)
	var a, b []core.LabeledPoint
	for i := 0; i < len(pts); i += 1000 {
		a = inline.ClassifyBatch(a[:0], pts[i:i+1000])
		b = offloaded.ClassifyBatch(b[:0], pts[i:i+1000])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("labels diverge in the batch at point %d", i)
		}
	}
	if inline.Retrains < 2 || offloaded.Retrains != inline.Retrains || fits != inline.Retrains {
		t.Errorf("refits: inline %d, offloaded %d through %d offload calls", inline.Retrains, offloaded.Retrains, fits)
	}
	if offloaded.Threshold() != inline.Threshold() {
		t.Errorf("threshold %v != %v", offloaded.Threshold(), inline.Threshold())
	}
}
