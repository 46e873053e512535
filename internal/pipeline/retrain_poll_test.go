package pipeline

import (
	"testing"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/gen"
)

// TestPollServedDuringRetrain: a poll that arrives while the shard's
// classifier is inside a model refit is answered from the shard's
// state as of the last whole batch instead of waiting the refit out
// (the refit runs beside the worker, which keeps serving snapshots;
// see core.Offloader). The trainer here blocks its second fit until
// the poll has come back.
func TestPollServedDuringRetrain(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 200, Seed: 7})
	i := 0
	src := core.NewFuncSource(1024, func(dst []core.Point) int {
		for j := range dst {
			dst[j] = d.Points[i%len(d.Points)]
			i++
		}
		return len(dst)
	})
	fit := classify.AutoTrainer(1, 3)
	fits := 0
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{Dims: 1, MinSupport: 0.005, RetrainEvery: 20_000, Seed: 3,
		Trainer: func(sample [][]float64) (classify.Scorer, error) {
			if fits++; fits == 2 {
				close(entered)
				<-release
			}
			return fit(sample)
		}}
	sess, err := StartShardedStream(src, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never reached its second refit")
	}
	polled := make(chan *ShardedResult, 1)
	go func() {
		res, err := sess.Poll()
		if err != nil {
			t.Error(err)
		}
		polled <- res
	}()
	select {
	case res := <-polled:
		// The first model had 20K points to label outliers with, so
		// the shard has something to explain by now.
		if res == nil || len(res.Explanations) == 0 {
			t.Errorf("poll during the refit returned no explanations: %+v", res)
		}
	case <-time.After(30 * time.Second):
		t.Error("poll waited for the refit")
	}
	close(release)
	if _, err := sess.Stop(); err != nil {
		t.Fatal(err)
	}
}
