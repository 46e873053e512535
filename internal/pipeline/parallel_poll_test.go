package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// TestParallelPollHammerWithRebalance is the -race exerciser for
// parallel pollers: four goroutines poll at once, racing each other and
// live ingest with rebalancing enabled, so each poll merges shard
// clones taken mid-epoch-swap. Correctness here is "no race, no torn
// result, coherent final answer"; the answers themselves are pinned by
// the explain-level differential and golden tests.
func TestParallelPollHammerWithRebalance(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.SkewedDevices(gen.SkewConfig{Points: 120_000, PinShards: shards, Seed: 53})
	cfg := skewedConfig(len(d.Points))
	cfg.CoordinateEvery = 1_000
	cfg.BatchSize = 512
	_, batched := splitParts(d.Points, nParts, cfg.BatchSize)

	p := ingest.NewPush(nParts, 4)
	sess, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	feedPush(t, p, batched)

	stopPoll := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				res, err := sess.Poll()
				if err != nil {
					t.Error(err)
					return
				}
				// Torn-result check: one poll's explanations all come
				// from the same merged snapshot set.
				for i := 1; i < len(res.Explanations); i++ {
					if res.Explanations[i].TotalOutliers != res.Explanations[0].TotalOutliers ||
						res.Explanations[i].TotalInliers != res.Explanations[0].TotalInliers {
						t.Error("torn poll: explanations mix class totals from different merges")
						return
					}
				}
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points >= len(d.Points)/4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream made no progress")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	final, err := sess.StopContext(ctx)
	cancel()
	close(stopPoll)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || len(final.Explanations) == 0 {
		t.Fatal("no final explanations")
	}
	// The final reconciliation runs through the same merge; a second
	// stop-side poll must reproduce it exactly.
	again, err := sess.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Explanations, final.Explanations) {
		t.Error("post-stop poll diverged from final result")
	}
}
