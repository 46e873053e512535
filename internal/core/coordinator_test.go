package core

import (
	"testing"
	"time"
)

// TestCoordinatorOnePassPerCadence: the coordinator completes one pass
// per CoordinateEvery ingested points whether it has threshold rounds,
// rebalance checks or both to run, and a multi-shard run with neither
// starts no coordinator at all. Each read carries exactly one cadence
// of points, and the next is fed only once the pass has completed, so
// no boundary signal is absorbed by a pending one.
func TestCoordinatorOnePassPerCadence(t *testing.T) {
	const shards, every, passes = 3, 1000, 8
	coordinate := func() *ShardCoordinator {
		return &ShardCoordinator{
			Collect: func(int, ShardPipeline) any { return 1 },
			Merge:   func([]any) (any, bool) { return nil, true },
			Apply:   func(int, ShardPipeline, any) {},
		}
	}
	cases := []struct {
		name      string
		coord     *ShardCoordinator
		rebalance *RebalancePolicy
		passes    int
		rounds    int
	}{
		{"rebalance only", nil, &RebalancePolicy{}, passes, 0},
		{"thresholds only", coordinate(), nil, passes, passes},
		{"both", coordinate(), &RebalancePolicy{}, passes, passes},
		{"neither", nil, nil, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := newChanSource(1, 1)
			sr := &StreamRunner{
				Partitioned: src,
				Shards:      shards,
				NewShard: func(int) ShardPipeline {
					return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
				},
				Coordinate:      c.coord,
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
