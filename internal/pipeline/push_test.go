package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// cutClassifier is a stateless deterministic classifier: label depends
// only on the point, never on arrival order — which is what makes
// multi-partition ingest (scheduling-dependent interleaving at each
// shard) exactly reproducible against the sequential pull path.
type cutClassifier struct{ cut float64 }

func (c *cutClassifier) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	for i := range batch {
		lp := core.LabeledPoint{Point: batch[i], Score: batch[i].Metrics[0]}
		if lp.Score > c.cut {
			lp.Label = core.Outlier
		}
		dst = append(dst, lp)
	}
	return dst
}

// chunk splits pts into batches of at most size, preserving order.
func chunk(pts []core.Point, size int) [][]core.Point {
	var out [][]core.Point
	for off := 0; off < len(pts); off += size {
		end := min(off+size, len(pts))
		out = append(out, pts[off:end])
	}
	return out
}

// feedPush starts one goroutine per partition, pushing that
// partition's batches in order and closing the producer.
func feedPush(t *testing.T, p *ingest.Push, perPart [][][]core.Point) {
	t.Helper()
	for i := range perPart {
		go func(i int) {
			pr := p.Producer(i)
			ctx := context.Background()
			for _, b := range perPart[i] {
				if err := pr.Send(ctx, b); err != nil {
					t.Error(err)
					return
				}
			}
			pr.Close()
		}(i)
	}
}

// requireIdenticalRanked asserts two ranked explanation lists are
// equal element-for-element — same order, same items, bit-identical
// statistics.
func requireIdenticalRanked(t *testing.T, label string, got, want []core.Explanation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d explanations", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: rank %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestPushIngestOnePartitionMatchesPullExactly: a one-partition push
// source delivering the pull loop's exact batches must reproduce the
// legacy pull path bit-for-bit — default streaming classifiers, decay
// ticks and all — because a single ingest goroutine preserves total
// order. Threshold coordination is off: its rounds fire asynchronously
// with ingest, so two coordinated runs are not bit-exact even over
// identical batch sequences.
func TestPushIngestOnePartitionMatchesPullExactly(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 90_000, Devices: 600, Seed: 21})
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 15_000, BatchSize: 2048, Seed: 5, DisableGlobalThreshold: true}
	const shards = 4

	pull, err := RunShardedStream(core.NewSliceSource(d.Points), cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	p := ingest.NewPush(1, 2)
	feedPush(t, p, [][][]core.Point{chunk(d.Points, cfg.BatchSize)})
	push, err := RunPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	if push.Stats.Points != pull.Stats.Points ||
		push.Stats.OutPoints != pull.Stats.OutPoints ||
		push.Stats.Outliers != pull.Stats.Outliers ||
		push.Stats.DecayTicks != pull.Stats.DecayTicks {
		t.Errorf("stats differ: push %+v pull %+v", push.Stats.RunStats, pull.Stats.RunStats)
	}
	requireIdenticalRanked(t, "P=1 push vs pull", push.Explanations, pull.Explanations)
}

// TestPushIngestThreePartitionsMatchesPullExactly: P=3 partitions into
// 4 shards must produce ranked explanations identical to the legacy
// pull path over the same data. With concurrent partitions the
// interleaving at each shard is scheduling-dependent, so the pipeline
// is configured order-insensitively: deterministic per-point
// classification (NewClassifier factory) and no decay ticks. Each
// shard then sees the same point multiset either way, and the
// summaries — exact counts, order-independent tree multisets — force
// bit-identical merged output.
func TestPushIngestThreePartitionsMatchesPullExactly(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 60_000, Devices: 500, Seed: 33})
	cut := 13.0
	cfg := Config{
		Dims:       1,
		MinSupport: 0.005,
		// No decay ticks within the stream: decayed counts depend on
		// when ticks land relative to inserts, which is partition-
		// interleaving-dependent.
		DecayEveryPoints: len(d.Points) + 1,
		BatchSize:        2048,
		NewClassifier:    func(shard int) core.Classifier { return &cutClassifier{cut: cut} },
		Seed:             5,
	}
	const (
		partitions = 3
		shards     = 4
	)

	pull, err := RunShardedStream(core.NewSliceSource(d.Points), cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Deal the stream round-robin across partitions in batch-sized
	// chunks — the shape of N producers tailing one upstream feed.
	perPart := make([][][]core.Point, partitions)
	for i, b := range chunk(d.Points, cfg.BatchSize) {
		perPart[i%partitions] = append(perPart[i%partitions], b)
	}
	p := ingest.NewPush(partitions, 2)
	feedPush(t, p, perPart)
	push, err := RunPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	if push.Stats.Points != pull.Stats.Points || push.Stats.Outliers != pull.Stats.Outliers {
		t.Errorf("stats differ: push %+v pull %+v", push.Stats.RunStats, pull.Stats.RunStats)
	}
	requireIdenticalRanked(t, "P=3 push vs pull", push.Explanations, pull.Explanations)
}

// blockingSource is a legacy Source that delivers a few batches, then
// blocks in Next forever (until released) — the PR-1 stop-stall
// limitation in source form.
type blockingSource struct {
	batches int
	block   chan struct{}
}

func (s *blockingSource) Next(max int) ([]core.Point, error) {
	if s.batches > 0 {
		s.batches--
		pts := make([]core.Point, max)
		for i := range pts {
			pts[i] = core.Point{Metrics: []float64{float64(i % 50)}, Attrs: []int32{int32(i % 9)}}
		}
		return pts, nil
	}
	<-s.block
	return nil, core.ErrEndOfStream
}

// TestStopContextDeadlineAgainstBlockingSource pins the satellite fix:
// a Source whose Next never returns can no longer stall session stop —
// StopContext abandons ingest at its deadline and still returns a
// final result covering the points delivered before the stall.
func TestStopContextDeadlineAgainstBlockingSource(t *testing.T) {
	src := &blockingSource{batches: 3, block: make(chan struct{})}
	defer close(src.block)
	sess, err := StartShardedStream(src, Config{Dims: 1, BatchSize: 512}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the delivered prefix is ingested and the source is
	// parked inside its blocking Next.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if res, err := sess.Poll(); err == nil && res.Stats.Points >= 3*512 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	final, err := sess.StopContext(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("StopContext took %v against a blocked source", elapsed)
	}
	if final.Stats.Points != 3*512 {
		t.Errorf("final points %d, want %d (the delivered prefix)", final.Stats.Points, 3*512)
	}
	if !sess.Done() {
		t.Error("session not done after StopContext")
	}
	// Idempotent, like Stop.
	again, err := sess.StopContext(context.Background())
	if err != nil || again != final {
		t.Errorf("second StopContext: (%p, %v), want (%p, nil)", again, err, final)
	}
}

// TestStopContextCancelsBlockedPushRead: for context-aware partitioned
// sources no abandonment is needed — stop cancels the blocked read
// itself, and the result covers everything pushed.
func TestStopContextCancelsBlockedPushRead(t *testing.T) {
	p := ingest.NewPush(2, 2)
	sess, err := StartPartitionedStream(p, Config{Dims: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]core.Point, 1000)
	for i := range pts {
		pts[i] = core.Point{Metrics: []float64{float64(i % 50)}, Attrs: []int32{int32(i % 9)}}
	}
	if err := p.Producer(0).Send(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	// Producers stay open: both partitions end up blocked in NextBatchInto.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if res, err := sess.Poll(); err == nil && res.Stats.Points >= len(pts) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := sess.StopContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.Stats.Points != len(pts) {
		t.Errorf("final points %d, want %d", final.Stats.Points, len(pts))
	}
}

// TestSnapshotElisionCounters: once the stream quiesces, polling is
// deterministic — every further poll, and the final Stop result, is
// reflect.DeepEqual to the one before it.
func TestSnapshotElisionCounters(t *testing.T) {
	const shards = 2
	p := ingest.NewPush(1, 2)
	sess, err := StartPartitionedStream(p, Config{Dims: 1, MinSupport: 0.01, NewClassifier: func(int) core.Classifier { return &cutClassifier{cut: 40} }}, shards)
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Devices(gen.DeviceConfig{Points: 20_000, Devices: 100, Seed: 9})
	if err := p.Producer(0).Send(context.Background(), d.Points); err != nil {
		t.Fatal(err)
	}

	// Drive polls until quiescence. Stats.Points counts at ingest time,
	// so it can report completion while shard workers are still
	// consuming; anchor instead on the per-shard counters, which bump at
	// consume start on the worker goroutine — the same goroutine that
	// serves snapshots between batches. Two consecutive polls with the
	// full count consumed guarantee the second poll's merged state is
	// final (the first poll proved the last batch had started; any later
	// serve runs after it finished).
	var prev *ShardedResult
	deadline := time.Now().Add(10 * time.Second)
	quiesced := 0
	for quiesced < 2 {
		if time.Now().After(deadline) {
			t.Fatal("stream did not quiesce")
		}
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		consumed := 0
		if res.Shards != nil {
			for _, s := range res.Shards.PerShard {
				consumed += s.Points
			}
		}
		if consumed >= len(d.Points) {
			quiesced++
		} else {
			quiesced = 0
			time.Sleep(time.Millisecond)
		}
		prev = res
	}
	if len(prev.Explanations) == 0 {
		t.Fatal("no explanations at quiescence; the determinism check below would be vacuous")
	}

	// Frozen state: each poll recomputes the same answer.
	for i := 0; i < 3; i++ {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Explanations, prev.Explanations) {
			t.Fatalf("poll %d over frozen state differs from the one before it", i)
		}
		prev = res
	}

	p.CloseAll()
	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Explanations, prev.Explanations) {
		t.Error("final result differs from the frozen-state polls")
	}
}

// TestPushSessionConcurrentProducersPollsStop is the -race hammer: N
// concurrent push producers against live polls and a mid-stream stop.
func TestPushSessionConcurrentProducersPollsStop(t *testing.T) {
	const (
		partitions = 3
		shards     = 4
		producers  = 3
	)
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 200, Seed: 17})
	p := ingest.NewPush(partitions, 2)
	sess, err := StartPartitionedStream(p, Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 8_000, Seed: 3}, shards)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancelProducers := context.WithCancel(context.Background())
	defer cancelProducers()
	var prodWg sync.WaitGroup
	for g := 0; g < producers; g++ {
		prodWg.Add(1)
		go func(g int) {
			defer prodWg.Done()
			pr := p.Producer(g % partitions)
			for i := 0; ; i++ {
				off := ((g*7919 + i*1024) % len(d.Points))
				end := min(off+1024, len(d.Points))
				if err := pr.Send(ctx, d.Points[off:end]); err != nil {
					return // session stopping: context cancelled
				}
			}
		}(g)
	}

	var pollWg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		pollWg.Add(1)
		go func() {
			defer pollWg.Done()
			for k := 0; k < 40; k++ {
				res, err := sess.Poll()
				if err != nil {
					errs <- "poll: " + err.Error()
					return
				}
				for i := 1; i < len(res.Explanations); i++ {
					if res.Explanations[i].TotalOutliers != res.Explanations[0].TotalOutliers ||
						res.Explanations[i].TotalInliers != res.Explanations[0].TotalInliers {
						errs <- "torn poll: explanations mix class totals"
						return
					}
				}
			}
		}()
	}
	pollWg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	ctxStop, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := sess.StopContext(ctxStop)
	if err != nil {
		t.Fatal(err)
	}
	if final.Stats.Points == 0 {
		t.Error("hammer session ingested nothing")
	}
	cancelProducers()
	prodWg.Wait()
	if !sess.Done() {
		t.Error("session not done after stop")
	}
	// Post-stop teardown must be orderly: closing the producers and
	// sending afterwards fails cleanly instead of panicking or
	// blocking (the queue may be full with the consumer gone, so only
	// a closed producer gives a deterministic outcome).
	p.CloseAll()
	if err := p.Producer(0).Send(context.Background(), d.Points[:16]); !errors.Is(err, ingest.ErrProducerClosed) {
		t.Errorf("post-close send: %v, want ErrProducerClosed", err)
	}
}
