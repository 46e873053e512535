package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestBatchAppendRoundTrip: appended rows come back as identical
// views, including variable per-row metric/attr arities and times.
func TestBatchAppendRoundTrip(t *testing.T) {
	b := &Batch{}
	want := []Point{
		{Metrics: []float64{1, 2}, Attrs: []int32{7}, Time: 0.5},
		{Metrics: []float64{3}, Attrs: []int32{8, 9, 10}, Time: 1.5},
		{Metrics: nil, Attrs: nil, Time: 2.5},
		{Metrics: []float64{4, 5, 6}, Attrs: []int32{11}, Time: 3.5},
	}
	for i := range want {
		b.AppendPoint(&want[i])
	}
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	got := b.Points()
	for i := range want {
		if len(got[i].Metrics) != len(want[i].Metrics) || len(got[i].Attrs) != len(want[i].Attrs) || got[i].Time != want[i].Time {
			t.Fatalf("point %d shape differs: got %+v want %+v", i, got[i], want[i])
		}
		for j := range want[i].Metrics {
			if got[i].Metrics[j] != want[i].Metrics[j] {
				t.Fatalf("point %d metric %d: got %v want %v", i, j, got[i].Metrics[j], want[i].Metrics[j])
			}
		}
		for j := range want[i].Attrs {
			if got[i].Attrs[j] != want[i].Attrs[j] {
				t.Fatalf("point %d attr %d: got %v want %v", i, j, got[i].Attrs[j], want[i].Attrs[j])
			}
		}
	}
}

// TestBatchViewsSurviveSlabGrowth: views handed out eagerly must be
// rebased when a later append grows a slab, so Points always reflects
// the appended data.
func TestBatchViewsSurviveSlabGrowth(t *testing.T) {
	b := NewBatch(2, 1, 1) // tiny: growth guaranteed
	for i := 0; i < 1000; i++ {
		b.Append([]float64{float64(i)}, []int32{int32(i)}, float64(i))
	}
	pts := b.Points()
	if len(pts) != 1000 {
		t.Fatalf("len %d", len(pts))
	}
	for i := range pts {
		if pts[i].Metrics[0] != float64(i) || pts[i].Attrs[0] != int32(i) || pts[i].Time != float64(i) {
			t.Fatalf("point %d corrupted after growth: %+v", i, pts[i])
		}
	}
}

// TestBatchViewCapacityClamped: appending through a handed-out view
// must not clobber the next row's slab data.
func TestBatchViewCapacityClamped(t *testing.T) {
	b := &Batch{}
	b.Append([]float64{1}, []int32{10}, 0)
	b.Append([]float64{2}, []int32{20}, 0)
	pts := b.Points()
	_ = append(pts[0].Metrics, 999)
	_ = append(pts[0].Attrs, 999)
	if got := b.Points()[1]; got.Metrics[0] != 2 || got.Attrs[0] != 20 {
		t.Fatalf("append through a view clobbered the neighbor: %+v", got)
	}
}

// TestBatchResetReusesSlabs: after a warmup fill, Reset+refill of the
// same shape must not allocate.
func TestBatchResetReusesSlabs(t *testing.T) {
	b := &Batch{}
	m := []float64{1, 2}
	a := []int32{3}
	for i := 0; i < 512; i++ {
		b.Append(m, a, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for i := 0; i < 512; i++ {
			b.Append(m, a, 0)
		}
		if len(b.Points()) != 512 {
			t.Fatal("short batch")
		}
	})
	if allocs != 0 {
		t.Fatalf("recycled fill allocated %v times per run, want 0", allocs)
	}
}

// TestBatchBorrow: a borrowed batch serves the caller's points
// verbatim, and Reset returns it to slab mode.
func TestBatchBorrow(t *testing.T) {
	pts := []Point{{Metrics: []float64{1}, Attrs: []int32{2}}}
	b := &Batch{}
	b.Borrow(pts)
	if b.Len() != 1 || &b.Points()[0] != &pts[0] {
		t.Fatal("borrow did not alias the caller's points")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append on a borrowed batch did not panic")
			}
		}()
		b.Append([]float64{3}, nil, 0)
	}()
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset did not drop the borrow")
	}
	b.Append([]float64{9}, []int32{9}, 0)
	if b.Points()[0].Metrics[0] != 9 {
		t.Fatal("slab mode broken after borrow+reset")
	}
}

// TestBatchPoolRecycles: Get must hand back an emptied previously-Put
// batch; past capacity, Put drops.
func TestBatchPoolRecycles(t *testing.T) {
	p := NewBatchPool(1)
	b := p.Get()
	b.Append([]float64{1}, []int32{1}, 0)
	p.Put(b)
	p.Put(&Batch{}) // over capacity: dropped, must not panic
	got := p.Get()
	if got != b {
		t.Fatal("pool did not recycle the batch")
	}
	if got.Len() != 0 {
		t.Fatal("recycled batch not reset")
	}
	p.Put(nil) // must not panic
}

// TestBatchPoolDropsOversized: a batch whose slabs grew past the
// retention cap is dropped by Put instead of pinning its memory in the
// free list for the pool's lifetime.
func TestBatchPoolDropsOversized(t *testing.T) {
	p := NewBatchPool(2)
	big := &Batch{}
	big.Append(make([]float64, (maxRetainedBatchBytes/8)+1), nil, 0)
	p.Put(big)
	if got := p.Get(); got == big {
		t.Fatal("pool retained an oversized batch")
	}
}

// TestBatchPoolPutDropsBorrow: Put clears the borrow immediately, so
// an idle pooled wrapper does not pin the lender's points until the
// next Get.
func TestBatchPoolPutDropsBorrow(t *testing.T) {
	p := NewBatchPool(1)
	b := &Batch{}
	b.Borrow([]Point{{Metrics: []float64{1}}})
	p.Put(b)
	if b.borrowed != nil {
		t.Fatal("Put left the borrowed points pinned in the idle pool")
	}
}

// TestRouteScatterAllocFree pins the steady-state ingest->route path's
// allocation bound (the PR's acceptance criterion is <= 8 allocations
// per 1024-point batch; the scatter itself is zero once slab
// capacities have warmed up): hash-partitioning a 1024-point batch
// into per-shard recycled slabs must not touch the allocator.
func TestRouteScatterAllocFree(t *testing.T) {
	const shards = 4
	pts := streamPoints(1024)
	staging := make([]*Batch, shards)
	pool := NewBatchPool(shards)
	for s := range staging {
		staging[s] = pool.Get()
	}
	scatter := func() {
		for i := range pts {
			s := HashPartition(&pts[i], shards)
			staging[s].AppendPoint(&pts[i])
		}
		for s := range staging {
			// Hand-off stand-in: recycle through the pool like a worker.
			b := staging[s]
			pool.Put(b)
			staging[s] = pool.Get()
		}
	}
	scatter() // warm slab capacities
	allocs := testing.AllocsPerRun(50, scatter)
	if allocs > 8 {
		t.Fatalf("steady-state route scatter: %v allocs per 1024-point batch, want <= 8", allocs)
	}
}

// TestAckTrackerSteadyStateZeroAlloc pins the checkpoint bookkeeping's
// allocation behavior on the routed ingest path: under pipelined flow,
// consumption lags ingest by a window, so the tracker is never fully
// drained and its truncate-when-empty fast path never fires. begin
// must recycle the completed prefix in place instead of growing the
// in-flight slice one allocation at a time for the life of the run —
// the regression that cost PushIngest/p3s4 an alloc per batch.
func TestAckTrackerSteadyStateZeroAlloc(t *testing.T) {
	tr := &ackTracker{}
	const k = 4   // sub-batches per read (shard fan-out)
	const lag = 8 // pipeline depth: done trails begin by this many reads
	off := int64(0)
	pending := make([]int64, 0, lag)
	step := func() {
		off++
		tr.begin(off, k)
		pending = append(pending, off)
		if len(pending) >= lag {
			oldest := pending[0]
			pending = append(pending[:0], pending[1:]...)
			for i := 0; i < k; i++ {
				tr.done(oldest)
			}
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm the in-flight window's capacity
	}
	allocs := testing.AllocsPerRun(200, step)
	if allocs != 0 {
		t.Fatalf("pipelined ack tracking allocates %v allocs per batch, want 0", allocs)
	}
	if got := tr.get(); got <= 0 {
		t.Fatalf("committed offset did not advance under pipelined acks: %d", got)
	}
}

// aliasPartition is a partition stream whose every batch is filled with
// a self-consistent pattern: point i of batch k has Metrics[0] = id,
// Metrics[1] = 2*id and Attrs[0] = id%97 for id = k*maxPts+i. Any
// cross-owner slab aliasing shows up as a broken invariant (or as a
// data race under -race).
type aliasPartition struct {
	total   int // points to emit
	chunk   int // preferred batch size (also clamped by max)
	emitted int
}

func (p *aliasPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if p.emitted >= p.total {
		return nil, ErrEndOfStream
	}
	n := min(p.chunk, max, p.total-p.emitted)
	base := p.emitted
	for i := 0; i < n; i++ {
		id := float64(base + i)
		dst.Append([]float64{id, 2 * id}, []int32{int32((base + i) % 97)}, 0)
	}
	p.emitted += n
	return dst, nil
}

type aliasSource struct{ parts []*aliasPartition }

func (s *aliasSource) Partitions() []PartitionStream {
	out := make([]PartitionStream, len(s.parts))
	for i, p := range s.parts {
		out[i] = p
	}
	return out
}

// TestStreamRunnerBatchRecyclingAliasing is the recycling -race
// hammer: three slab-native partitions feed four shards through the
// pooled data plane while snapshots poll concurrently; every labeled
// point must still satisfy the per-point invariant when it reaches a
// worker (a recycled slab visible to two owners would tear it), and
// nothing may be lost or duplicated.
func TestStreamRunnerBatchRecyclingAliasing(t *testing.T) {
	const (
		partitions = 3
		shards     = 4
		batches    = 120
		perBatch   = 257 // deliberately not a round number
	)
	src := &aliasSource{}
	for i := 0; i < partitions; i++ {
		src.parts = append(src.parts, &aliasPartition{total: batches * perBatch, chunk: perBatch})
	}
	var mu sync.Mutex
	seen := make(map[float64]int)
	onBatch := func(shard int, batch []LabeledPoint) {
		mu.Lock()
		defer mu.Unlock()
		for i := range batch {
			p := &batch[i].Point
			if len(p.Metrics) != 2 || len(p.Attrs) != 1 {
				t.Errorf("torn point shape: %+v", p)
				return
			}
			id := p.Metrics[0]
			if p.Metrics[1] != 2*id || p.Attrs[0] != int32(int(id)%97) {
				t.Errorf("aliased slab: point %v fails invariant", *p)
				return
			}
			seen[id]++
		}
	}
	sr := StreamRunner{
		Partitioned: src,
		Shards:      shards,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 1e18}, Explainer: &tapExplainer{shard: shard, tap: onBatch}}
		},
		BatchSize: 173, // force splits relative to perBatch
		SnapshotShard: func(shard int, pl ShardPipeline) any {
			return pl.Explainer.(*tapExplainer).consumed
		},
	}
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		ok := false
		for {
			_, err := sr.Snapshot()
			if err == nil {
				ok = true
			} else if err == ErrNotStreaming && ok {
				return // the run finished
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-pollDone
	want := partitions * batches * perBatch
	if stats.Points != want {
		t.Fatalf("ingested %d, want %d", stats.Points, want)
	}
	mu.Lock()
	defer mu.Unlock()
	// Each partition emits the same id range, so every id must be seen
	// exactly `partitions` times.
	if len(seen) != batches*perBatch {
		t.Fatalf("saw %d distinct ids, want %d", len(seen), batches*perBatch)
	}
	for id, n := range seen {
		if n != partitions {
			t.Fatalf("id %v seen %d times, want %d", id, n, partitions)
		}
	}
}

// TestStreamRunnerSingleShardOwnsNativeBatch: with one shard the
// engine hands the source-filled recycled batch to the worker outright
// — pinned by the batch pointer making a full producer->worker->pool
// round trip (the same *Batch shows up at the source again).
func TestStreamRunnerSingleShardOwnsNativeBatch(t *testing.T) {
	src := &identitySource{batches: 64}
	sr := StreamRunner{
		Partitioned: src,
		Shards:      1,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		BatchSize: 64,
	}
	if _, err := sr.Run(); err != nil {
		t.Fatal(err)
	}
	if len(src.distinct) > 4 {
		t.Errorf("one-shard run cycled %d distinct batches; recycling broken (want a handful)", len(src.distinct))
	}
}

// identitySource records the distinct *Batch pointers the engine loans
// it, to observe recycling.
type identitySource struct {
	batches  int
	sent     int
	distinct map[*Batch]bool
}

func (s *identitySource) Partitions() []PartitionStream { return []PartitionStream{s} }

func (s *identitySource) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if s.distinct == nil {
		s.distinct = make(map[*Batch]bool)
	}
	if s.sent >= s.batches {
		return nil, ErrEndOfStream
	}
	s.sent++
	s.distinct[dst] = true
	for i := 0; i < max && i < 16; i++ {
		dst.Append([]float64{float64(i)}, []int32{int32(i % 5)}, 0)
	}
	return dst, nil
}
