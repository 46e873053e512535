package core

import (
	"sync/atomic"
	"testing"
)

// TestRebalancePolicyNormalize pins the bucket-count rounding that the
// bit-exactness guarantee rides on: the effective count is always a
// multiple of the shard count, never below it.
func TestRebalancePolicyNormalize(t *testing.T) {
	cases := []struct {
		shards, want int
	}{
		{4, 256}, // default, already a multiple
		{3, 258}, // default rounded up to a multiple of 3
		{7, 259},
		{1, 256},
		{300, 300}, // more shards than the default: one bucket each
	}
	for _, c := range cases {
		got := routingBuckets(c.shards)
		if got != c.want {
			t.Errorf("routingBuckets(%d): got %d buckets, want %d", c.shards, got, c.want)
		}
		if got%c.shards != 0 {
			t.Errorf("routingBuckets(%d): %d not a multiple of %d", c.shards, got, c.shards)
		}
	}
}

// TestIdentityTableMatchesHashPartition is the bit-exactness pin: with
// the initial identity table over a bucket count that is a multiple of
// the shard count, bucket routing places every attributed point exactly
// where HashPartition does — for shard counts that divide 256 and ones
// that don't.
func TestIdentityTableMatchesHashPartition(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 5, 7, 8, 16} {
		buckets := routingBuckets(shards)
		assign := make([]int32, buckets)
		for b := range assign {
			assign[b] = int32(b % shards)
		}
		for i := 0; i < 10_000; i++ {
			pt := Point{Attrs: []int32{int32(i), int32(i * 31), int32(i % 97)}}
			b := HashBucket(&pt, buckets)
			if b < 0 {
				t.Fatalf("attributed point returned bucket %d", b)
			}
			if got, want := int(assign[b]), HashPartition(&pt, shards); got != want {
				t.Fatalf("shards=%d point %d: identity table routes to %d, HashPartition to %d", shards, i, got, want)
			}
		}
	}
}

// TestHashBucketAttrLess: attribute-less points get no bucket — the
// scatter loop round-robins them instead of hot-spotting shard 0.
func TestHashBucketAttrLess(t *testing.T) {
	if b := HashBucket(&Point{}, 256); b != -1 {
		t.Fatalf("attr-less bucket = %d, want -1", b)
	}
}

// TestRebalanceAssignMovesHotBuckets: a window where one shard carries
// well over the trigger must shed buckets to the coolest shards, and
// the resulting assignment must bring the window imbalance under the
// trigger.
func TestRebalanceAssignMovesHotBuckets(t *testing.T) {
	const shards = 4
	const buckets = 16
	assign := make([]int32, buckets)
	win := make([]int64, buckets)
	for b := range assign {
		assign[b] = int32(b % shards)
		win[b] = 100
	}
	// Shard 0's buckets carry 4x the load: share = 4*400/(4*400+1200)
	// = 0.571, imbalance 2.29.
	for b := 0; b < buckets; b += shards {
		win[b] = 400
	}
	healthy := []bool{true, true, true, true}
	moves := rebalanceAssign(assign, win, healthy, 1.5, buckets)
	if moves == 0 {
		t.Fatal("no moves despite imbalance 2.29 over trigger 1.5")
	}
	loads := make([]int64, shards)
	var total int64
	for b, s := range assign {
		loads[s] += win[b]
		total += win[b]
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	if imb := float64(max) / float64(total) * shards; imb > 1.5 {
		t.Fatalf("post-rebalance window imbalance %.2f still above trigger (loads %v)", imb, loads)
	}
}

// TestRebalanceAssignBelowTriggerIsNoop: hysteresis — a mildly skewed
// window must not churn the table.
func TestRebalanceAssignBelowTriggerIsNoop(t *testing.T) {
	assign := []int32{0, 1, 0, 1}
	win := []int64{120, 100, 100, 100} // imbalance 1.05
	if moves := rebalanceAssign(assign, win, []bool{true, true}, 1.5, 4); moves != 0 {
		t.Fatalf("moved %d buckets below the trigger", moves)
	}
}

// TestRebalanceAssignRespectsMaxMoves: the per-round cap bounds churn.
func TestRebalanceAssignRespectsMaxMoves(t *testing.T) {
	const buckets = 64
	assign := make([]int32, buckets)
	win := make([]int64, buckets)
	for b := range win {
		win[b] = 10 // everything on shard 0 of 4
	}
	if moves := rebalanceAssign(assign, win, []bool{true, true, true, true}, 1.5, 3); moves > 3 {
		t.Fatalf("moved %d buckets, cap was 3", moves)
	} else if moves == 0 {
		t.Fatal("cap prevented all moves")
	}
}

// TestRebalanceAssignEvacuatesDeadShards: every bucket on an unhealthy
// shard leaves it — even zero-load buckets — and none arrives; a
// quarantined shard is never a move target.
func TestRebalanceAssignEvacuatesDeadShards(t *testing.T) {
	const shards = 3
	const buckets = 9
	assign := make([]int32, buckets)
	win := make([]int64, buckets)
	for b := range assign {
		assign[b] = int32(b % shards)
		if b%shards == 1 {
			win[b] = 0 // dead shard's buckets happen to be cold
		} else {
			win[b] = 50
		}
	}
	healthy := []bool{true, false, true}
	moves := rebalanceAssign(assign, win, healthy, 1.5, buckets)
	if moves != 3 {
		t.Fatalf("moved %d buckets off the dead shard, want 3", moves)
	}
	for b, s := range assign {
		if s == 1 {
			t.Fatalf("bucket %d still assigned to dead shard 1", b)
		}
	}
}

// TestRebalanceAssignSingleGiantBucket: one bucket carrying most of the
// stream cannot be split, and the greedy step must not thrash moving it
// back and forth — it stays put when no move improves the pair.
func TestRebalanceAssignSingleGiantBucket(t *testing.T) {
	assign := []int32{0, 1, 0, 1}
	win := []int64{1000, 10, 10, 10}
	before := append([]int32(nil), assign...)
	moves := rebalanceAssign(assign, win, []bool{true, true}, 1.5, 10)
	// Moving bucket 2 (10 points) off shard 0 is a legal improvement;
	// what must never happen is bucket 0 bouncing.
	if assign[0] != before[0] {
		t.Fatalf("giant bucket was moved (assign %v -> %v, %d moves)", before, assign, moves)
	}
}

// TestMaybeRebalanceJudgesOnlyFullWindows writes the bucket counters
// directly. A 9-point window, all on shard 0, reads as a 2x imbalance
// and would move a bucket; it is below half the cadence, so it moves
// nothing and stays open. Once the same buckets' load is past the
// minimum it is judged as one window, the first 9 points included. A
// dead shard is evacuated at once, on a window of 3 points.
func TestMaybeRebalanceJudgesOnlyFullWindows(t *testing.T) {
	const shards = 2
	r := &StreamRunner{coordEvery: 1000}
	buckets := routingBuckets(shards)
	assign := make([]int32, buckets)
	for b := range assign {
		assign[b] = int32(b % shards)
	}
	r.route.Store(&routeTable{assign: assign})
	r.bucketLoads = [][]atomic.Int64{make([]atomic.Int64, buckets)}
	loads := r.bucketLoads[0]
	workers := []*shardWorker{
		{id: 0, stats: &shardStats{}},
		{id: 1, stats: &shardStats{}},
	}
	st := newRebalState(buckets, shards)
	epoch := func() int64 { return r.route.Load().epoch }

	// Buckets 0 and 2 both live on shard 0.
	loads[0].Add(5)
	loads[2].Add(4)
	r.maybeRebalance(workers, st)
	if epoch() != 0 || r.moves.Load() != 0 {
		t.Fatalf("a 9-point window moved %d buckets (epoch %d)", r.moves.Load(), epoch())
	}
	if st.last[0] != 0 || st.last[2] != 0 {
		t.Fatalf("a 9-point window was consumed: last = %d, %d", st.last[0], st.last[2])
	}

	loads[0].Add(400)
	loads[2].Add(300)
	r.maybeRebalance(workers, st)
	if st.win[0] != 405 || st.win[2] != 304 {
		t.Fatalf("window judged as %d + %d points, want 405 + 304", st.win[0], st.win[2])
	}
	if st.last[0] != 405 || st.last[2] != 304 {
		t.Fatalf("judged window not closed: last = %d, %d", st.last[0], st.last[2])
	}
	if epoch() != 1 || r.moves.Load() != 1 {
		t.Fatalf("a 709-point window at imbalance 2 moved %d buckets (epoch %d), want 1", r.moves.Load(), epoch())
	}

	workers[1].stats.failure.Store(new(string))
	loads[4].Add(3)
	r.maybeRebalance(workers, st)
	// The dead shard holds more buckets than one round may move, so the
	// round moves exactly its cap.
	if want := 1 + int64(buckets/4); epoch() != 2 || r.moves.Load() != want {
		t.Fatalf("dead shard not evacuated on a 3-point window: %d moves (want %d), epoch %d", r.moves.Load(), want, epoch())
	}
}

// TestStreamRunnerRebalancesSkewedLoad is the core end-to-end check:
// a Zipf-like workload whose hot attribute vectors all hash to shard 0
// must trigger at least one routing epoch, and the post-run shard loads
// must be far closer to even than the pinned assignment would be.
func TestStreamRunnerRebalancesSkewedLoad(t *testing.T) {
	const (
		shards  = 4
		total   = 120_000
		perSend = 500
	)
	// Hot attribute vectors: single-attr points whose hash lands on
	// shard 0, but in distinct buckets so they can spread.
	buckets := routingBuckets(shards)
	var hot []int32
	seen := map[int]bool{}
	for a := int32(0); len(hot) < 8 && a < 100_000; a++ {
		pt := Point{Attrs: []int32{a}}
		if HashPartition(&pt, shards) != 0 {
			continue
		}
		b := HashBucket(&pt, buckets)
		if seen[b] {
			continue
		}
		seen[b] = true
		hot = append(hot, a)
	}
	if len(hot) < 8 {
		t.Fatal("could not find hot attribute vectors")
	}
	src := newChanSource(1, 2)
	sr := StreamRunner{
		Partitioned: src,
		Shards:      shards,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		BatchSize:       256,
		Rebalance:       true,
		CoordinateEvery: 5_000,
	}
	go func() {
		part := src.parts[0]
		n := 0
		for n < total {
			batch := make([]Point, perSend)
			for j := range batch {
				if (n+j)%10 < 7 {
					// 70% of the stream on the 8 hot vectors.
					batch[j] = Point{Metrics: []float64{1}, Attrs: []int32{hot[(n+j)%len(hot)]}}
				} else {
					batch[j] = Point{Metrics: []float64{1}, Attrs: []int32{int32(100_000 + (n+j)%400)}}
				}
			}
			part.ch <- batch
			n += perSend
		}
		close(part.ch)
	}()
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != total {
		t.Fatalf("points %d, want %d", stats.Points, total)
	}
	if stats.RoutingEpoch == 0 || stats.BucketMoves == 0 {
		t.Fatalf("no rebalance fired: epoch=%d moves=%d", stats.RoutingEpoch, stats.BucketMoves)
	}
	// Pinned placement would put >= 70% + ~1/4 of the rest on shard 0
	// (imbalance >= 2.9). Post-rebalance the cumulative count still
	// includes the skewed prefix, so just require a big improvement.
	var max int64
	for _, ps := range stats.PerShard {
		if int64(ps.Points) > max {
			max = int64(ps.Points)
		}
	}
	imb := float64(max) / float64(total) * shards
	if imb > 2.2 {
		t.Fatalf("cumulative imbalance %.2f: rebalancing had no effect (per-shard %+v)", imb, stats.PerShard)
	}
}

// TestStreamRunnerRoutingSpreadsAttrLessPoints: in every multi-shard
// run, rebalancing or not, attribute-less points
// round-robin across shards instead of pinning shard 0 (they carry no
// itemsets, so placement is free).
func TestStreamRunnerRoutingSpreadsAttrLessPoints(t *testing.T) {
	const shards = 4
	const total = 8_000
	for _, rebalance := range []bool{true, false} {
		src := newChanSource(1, 2)
		sr := StreamRunner{
			Partitioned: src,
			Shards:      shards,
			NewShard: func(shard int) ShardPipeline {
				return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
			},
			BatchSize: 256,
			Rebalance: rebalance,
		}
		go func() {
			part := src.parts[0]
			for n := 0; n < total; n += 400 {
				batch := make([]Point, 400)
				for j := range batch {
					batch[j] = Point{Metrics: []float64{1}}
				}
				part.ch <- batch
			}
			close(part.ch)
		}()
		stats, err := sr.Run()
		if err != nil {
			t.Fatal(err)
		}
		for s, ps := range stats.PerShard {
			if ps.Points < total/shards-10 || ps.Points > total/shards+10 {
				t.Fatalf("rebalance %v: shard %d got %d attr-less points, want ~%d (per-shard %+v)", rebalance, s, ps.Points, total/shards, stats.PerShard)
			}
		}
	}
}
