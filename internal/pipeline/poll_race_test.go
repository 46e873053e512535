package pipeline

import (
	"sync"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/gen"
)

// endlessDevices replays a 30K-point device stream forever, so a
// session under test keeps ingesting (and decaying) until it is stopped.
func endlessDevices(seed uint64) core.Source {
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 200, Seed: seed})
	i := 0
	return core.NewFuncSource(1024, func(dst []core.Point) int {
		for j := range dst {
			dst[j] = d.Points[i%len(d.Points)]
			i++
		}
		return len(dst)
	})
}

// TestStreamSessionConcurrentPollCacheRace hammers Poll from several
// goroutines while ingest keeps mutating shard state and decay ticks
// restructure it, each poll merging the inlier trees of its own clones
// in place. Run under -race this pins that no poll reaches a tree a
// writer or another poll can reach; the in-test assertion pins that no
// poll ever observes a torn result: every explanation in one poll must
// be computed against the same merged class totals.
func TestStreamSessionConcurrentPollCacheRace(t *testing.T) {
	src := endlessDevices(7)
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 8_000, Seed: 3}
	sess, err := StartShardedStream(src, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up until the stream has outliers to explain.
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) > 0 {
			break
		}
	}

	const pollers = 4
	const pollsEach = 60
	var wg sync.WaitGroup
	errs := make(chan string, pollers*pollsEach)
	for g := 0; g < pollers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < pollsEach; k++ {
				res, err := sess.Poll()
				if err != nil {
					errs <- "poll: " + err.Error()
					return
				}
				// Torn-result check: a merged explanation set is
				// computed from one consistent snapshot, so every
				// explanation carries the same class totals.
				for i := 1; i < len(res.Explanations); i++ {
					if res.Explanations[i].TotalOutliers != res.Explanations[0].TotalOutliers ||
						res.Explanations[i].TotalInliers != res.Explanations[0].TotalInliers {
						errs <- "torn poll: explanations mix class totals from different merges"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Explanations) == 0 {
		t.Error("no final explanations")
	}
}
