package pipeline

import (
	"sync"
	"testing"
	"time"

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
// goroutines while ingest keeps mutating shard state (bumping tree
// epochs and totals, i.e. invalidating the session's poll cache
// mid-flight). Run under -race this pins the cache's concurrency
// contract; the in-test assertions pin that no poll ever observes a
// torn result: every explanation in one poll must be computed against
// the same merged class totals, and the cumulative cache counters must
// account for exactly the polls served and never move backwards.
func TestStreamSessionConcurrentPollCacheRace(t *testing.T) {
	src := endlessDevices(7)
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 8_000, Seed: 3}
	sess, err := StartShardedStream(src, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up until the stream has outliers to explain: polls before
	// that return early without touching the mining cache, which would
	// make the exact counter accounting below racy.
	var base int64
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) > 0 {
			base = res.Cache.FullHits + res.Cache.MineReuses + res.Cache.FullMines + res.Cache.DeltaMines
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
			var last int64
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
				served := res.Cache.FullHits + res.Cache.MineReuses + res.Cache.FullMines + res.Cache.DeltaMines
				if served < last {
					errs <- "cache counters went backwards"
					return
				}
				last = served
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
	served := final.Cache.FullHits + final.Cache.MineReuses + final.Cache.FullMines + final.Cache.DeltaMines
	// Every live poll plus the final reconciliation goes through the
	// session merger, so the counters must account for all of them.
	if want := base + int64(pollers*pollsEach) + 1; served != want {
		t.Errorf("cache counters served %d polls, want %d (%+v)", served, want, final.Cache)
	}
}

// TestLockedAndBypassPollsCountConcurrently drives the two poll paths
// directly, so that both are certain to run at once: the locked path
// counts inliers on the session's retained snapshots in place (a merged
// poll borrows their inlier trees, it copies none), the bypass path on
// its own clones, while ingest keeps writing the live trees the
// snapshots were cloned from and decay ticks restructure them. Under
// -race this pins that a borrowed tree is never one a writer can reach.
func TestLockedAndBypassPollsCountConcurrently(t *testing.T) {
	src := endlessDevices(11)
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 4_000, Seed: 5, PollParallelism: 2}
	sess, err := StartShardedStream(src, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var start int
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) > 0 {
			start = res.Stats.Points
			break
		}
	}
	// Run until both shards are some sixteen decay ticks further on.
	target := start + 2*16*cfg.DecayEveryPoints
	var points [2]int
	var served [2]int
	var wg sync.WaitGroup
	for path := range served {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for points[path] < target && time.Now().Before(deadline) {
				var res *ShardedResult
				var err error
				var outcome pollOutcome
				if path == 0 {
					sess.mineMu.Lock()
					res, err, outcome = sess.pollLocked()
					sess.mineMu.Unlock()
				} else {
					res, err, outcome = sess.pollBypass()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if outcome != pollServed {
					continue
				}
				served[path]++
				points[path] = res.Stats.Points
				for k := 1; k < len(res.Explanations); k++ {
					if res.Explanations[k].TotalOutliers != res.Explanations[0].TotalOutliers ||
						res.Explanations[k].TotalInliers != res.Explanations[0].TotalInliers {
						t.Error("torn poll: explanations mix class totals from different merges")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for path, name := range []string{"locked", "bypass"} {
		if served[path] == 0 || points[path] < target {
			t.Errorf("%s path served %d polls and saw %d points, want the stream past %d", name, served[path], points[path], target)
		}
	}
	t.Logf("%d locked and %d bypass polls over %d points", served[0], served[1], target-start)
	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Explanations) == 0 {
		t.Error("no final explanations")
	}
}
