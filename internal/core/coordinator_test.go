package core

import (
	"sync"
	"testing"
	"time"
)

// coordClassifier is a thresholdClassifier that takes part in threshold
// rounds: it offers a fixed score sample, records the cutoff a round
// applies, and panics on a point whose metric is negative — the
// stand-in for a shard whose state goes corrupt mid-run.
type coordClassifier struct {
	thresholdClassifier
	scores  []float64
	weight  float64
	applied []float64
}

func newCoordClassifier(weight float64, scores ...float64) *coordClassifier {
	return &coordClassifier{thresholdClassifier: thresholdClassifier{cut: 50}, scores: scores, weight: weight}
}

func (c *coordClassifier) ClassifyBatch(dst []LabeledPoint, batch []Point) []LabeledPoint {
	for i := range batch {
		if batch[i].Metrics[0] < 0 {
			panic("injected fault: poisoned point")
		}
	}
	return c.thresholdClassifier.ClassifyBatch(dst, batch)
}

func (c *coordClassifier) ScoreSample(buf []float64) ([]float64, float64) {
	return append(buf[:0], c.scores...), c.weight
}

func (c *coordClassifier) SetGlobalThreshold(cutoff float64) { c.applied = append(c.applied, cutoff) }

// poisonFor is a point that kills the coordClassifier of the shard of
// shards that the identity routing table sends it to.
func poisonFor(shard, shards int) Point {
	p := Point{Metrics: []float64{-1}}
	for a := int32(0); ; a++ {
		if p.Attrs = []int32{a}; HashPartition(&p, shards) == shard {
			return p
		}
	}
}

// waitStats polls sr.Stats until done reports true, failing the test
// after 10 s.
func waitStats(t *testing.T, sr *StreamRunner, what string, done func(StreamStats) bool) StreamStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sr.Stats()
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCoordinatorOnePassPerCadence: the coordinator completes one pass
// per CoordinateEvery ingested points whether it has threshold rounds,
// rebalance checks or both to run, and a multi-shard run with neither
// starts no coordinator at all. Each read carries exactly one cadence
// of points, and the next is fed only once the pass has completed, so
// no boundary signal is absorbed by a pending one.
func TestCoordinatorOnePassPerCadence(t *testing.T) {
	const shards, every, passes = 3, 1000, 8
	cases := []struct {
		name      string
		quantile  float64
		rebalance bool
		passes    int
		rounds    int
	}{
		{"rebalance only", 0, true, passes, 0},
		{"thresholds only", 0.5, false, passes, passes},
		{"both", 0.5, true, passes, passes},
		{"neither", 0, false, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := newChanSource(1, 1)
			sr := &StreamRunner{
				Partitioned: src,
				Shards:      shards,
				NewShard: func(int) ShardPipeline {
					return ShardPipeline{Classifier: newCoordClassifier(1, 1), Explainer: &shardCollectExplainer{}}
				},
				Coordinate:      c.quantile,
				Rebalance:       c.rebalance,
				CoordinateEvery: every,
			}
			ran := make(chan error, 1)
			go func() {
				_, err := sr.Run()
				ran <- err
			}()
			for k := 1; k <= passes; k++ {
				src.parts[0].ch <- streamPoints(every)
				for deadline := time.Now().Add(10 * time.Second); c.passes > 0 && sr.Stats().CoordPasses < k; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						close(src.parts[0].ch)
						t.Fatalf("pass %d not completed after %d points", k, k*every)
					}
				}
			}
			close(src.parts[0].ch)
			if err := <-ran; err != nil {
				t.Fatal(err)
			}
			st := sr.Stats()
			if st.Points != passes*every || st.CoordPasses != c.passes {
				t.Errorf("%d points, %d passes; want %d, %d", st.Points, st.CoordPasses, passes*every, c.passes)
			}
			if st.CoordRounds != c.rounds {
				t.Errorf("%d threshold rounds, want %d", st.CoordRounds, c.rounds)
			}
			if started := sr.coordCh != nil; started != (c.passes > 0) {
				t.Errorf("coordinator started = %v, want %v", started, c.passes > 0)
			}
		})
	}
}

// TestPooledCutoffWeighting: the pooled cutoff must weight each shard
// by its sample's weight, not its sample size — a heavy shard with few
// samples outvotes a light one with many.
func TestPooledCutoffWeighting(t *testing.T) {
	pool := func(q float64, samples ...scoreSample) (float64, bool) {
		th := newThresholdRound(len(samples))
		copy(th.samples, samples)
		return th.pool(q)
	}

	if _, ok := pool(0.99); ok {
		t.Error("pool of nothing reported ok")
	}
	if _, ok := pool(0.99, scoreSample{}, scoreSample{scores: []float64{1}, weight: 0}); ok {
		t.Error("pool of empty/zero-weight samples reported ok")
	}

	// Shard A: weight 90 spread over scores {1..9} -> 10 weight each.
	// Shard B: weight 10 on score {100}. Pooled median sits in A;
	// pooled 0.95 quantile is B's 100 (cum weight 90 < 95 <= 100).
	a := scoreSample{scores: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, weight: 90}
	b := scoreSample{scores: []float64{100}, weight: 10}
	if cut, ok := pool(0.5, a, b); !ok || cut != 5 {
		t.Errorf("median pool: got (%v, %v), want (5, true)", cut, ok)
	}
	if cut, ok := pool(0.95, a, b); !ok || cut != 100 {
		t.Errorf("0.95 pool: got (%v, %v), want (100, true)", cut, ok)
	}
	// Empty samples alongside real ones are skipped, not poisoning.
	if cut, ok := pool(0.5, scoreSample{}, a, scoreSample{scores: nil, weight: 0}, b); !ok || cut != 5 {
		t.Errorf("pool with empties: got (%v, %v), want (5, true)", cut, ok)
	}
}

// TestQuarantinedShardLeavesThresholdRounds: a shard quarantined after
// a threshold round it took part in is never pooled from its last
// sample, and is applied nothing more. The dead shard's sample is the
// heavy one, so had it been pooled again the cutoff would not move.
func TestQuarantinedShardLeavesThresholdRounds(t *testing.T) {
	const every = 1000
	src := newChanSource(1, 1)
	cls := []*coordClassifier{newCoordClassifier(1, 1), newCoordClassifier(100, 1000)}
	sr := &StreamRunner{
		Partitioned: src,
		Shards:      2,
		NewShard: func(s int) ShardPipeline {
			return ShardPipeline{Classifier: cls[s], Explainer: &shardCollectExplainer{}}
		},
		Coordinate:      0.5,
		CoordinateEvery: every,
	}
	if err := sr.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var once sync.Once
	end := func() { // ends the stream and waits the run out
		once.Do(func() { close(src.parts[0].ch) })
		<-done
	}
	defer end()
	go func() {
		defer close(done)
		if _, err := sr.Wait(); err != nil {
			t.Error(err)
		}
	}()

	src.parts[0].ch <- streamPoints(every)
	st := waitStats(t, sr, "the first round", func(st StreamStats) bool { return st.CoordRounds >= 1 })
	if st.GlobalCutoff != 1000 {
		t.Fatalf("first round pooled %v, want 1000 (both shards, the dead-to-be one heavier)", st.GlobalCutoff)
	}

	src.parts[0].ch <- []Point{poisonFor(1, 2)}
	waitStats(t, sr, "shard 1's quarantine", func(st StreamStats) bool { return st.Degraded })

	src.parts[0].ch <- streamPoints(every - 1)
	st = waitStats(t, sr, "the second pass", func(st StreamStats) bool { return st.CoordPasses >= 2 })
	if st.CoordRounds != 2 || st.GlobalCutoff != 1 {
		t.Errorf("after the quarantine: %d rounds, cutoff %v; want 2, 1 (the live shard's sample alone)", st.CoordRounds, st.GlobalCutoff)
	}
	end()
	if got := cls[1].applied; len(got) != 1 || got[0] != 1000 {
		t.Errorf("dead shard applied %v, want [1000] (the round before its quarantine)", got)
	}
	if got := cls[0].applied; len(got) != 2 || got[1] != 1 {
		t.Errorf("live shard applied %v, want [1000 1]", got)
	}
}
