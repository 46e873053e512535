package core

import "unsafe"

// Batch is the slab-backed batch representation of the ingest data
// plane: one flat []float64 slab for every point's metrics and one
// flat []int32 slab for every point's attributes, instead of one
// Metrics and one Attrs allocation per Point. The payoff is twofold.
// First, a batch is a constant number of allocations regardless of
// point count, and a recycled batch is zero: the slabs are reused in
// place by Reset, so a pooled batch moves through ingest -> route ->
// classify -> summarize without touching the allocator. Second, the
// payload slabs contain no pointers, so a resident batch costs the
// garbage collector almost nothing to scan and its refills incur no
// write barriers — on the profile that motivated this layout, the
// per-point []Point sub-batches and their interior slice pointers
// accounted for roughly 40% of steady-state ingest CPU in GC work
// alone.
//
// Operator APIs keep working on []Point: the batch maintains one Point
// view per row, each sub-slicing the slabs (capacity-clamped, so an
// append through a view cannot clobber its neighbor). The views are
// the batch's row index — there is no separate offset table — and are
// kept valid across slab growth by an O(rows) rebase on the rare
// reallocation, so Points is free.
//
// Ownership protocol: a Batch has exactly one owner at a time. Whoever
// holds it may fill it and hand it on (a channel send, the
// PartitionStream.NextBatchInto loan or swap, a BatchPool.Put); after
// handing it on, the previous owner must not touch the batch or any
// Point views obtained from it — the next owner will Reset and refill
// the same slabs. Every partition stream fills, borrows into or swaps
// out the batch the engine loans it; a stream that reuses its own
// buffers (FuncSource) copies their payload in, so no slice the source
// may rewrite ever reaches a worker.
// Pipeline stages that want to retain point data beyond the call that
// delivered it must copy the values out (every built-in operator
// already does: the classifier reservoirs copy metrics, and the
// explanation sketches and trees copy attribute ids).
//
// Batch is not safe for concurrent use; the ownership protocol is what
// makes the single-owner invariant hold across goroutines.
//
// The zero value is an empty, usable batch.
type Batch struct {
	metrics []float64
	attrs   []int32
	// pts are the materialized views, always in sync with the slabs:
	// pts[i].Metrics and pts[i].Attrs sub-slice metrics/attrs in row
	// order, and pts[i].Time carries the row's event time.
	pts []Point
	// borrowed, when non-nil, makes the batch a zero-copy wrapper
	// around caller-owned points (see Borrow); the slabs are unused.
	borrowed []Point
	// ackT/ackOff, when set, tag a routed sub-batch with its source
	// read's commit-tracking slot: the shard worker calls finishAck
	// when it is done with the batch, and the partition's committed
	// offset advances once every sub-batch of the read has. Cleared by
	// Reset and Put; never set on batches outside the engine's routing
	// path.
	ackT   *ackTracker
	ackOff int64
}

// NewBatch returns a batch preallocated for pointCap points carrying
// dims metrics and nattrs attributes each (either may be 0 to skip
// slab preallocation; the slabs grow on demand regardless).
func NewBatch(pointCap, dims, nattrs int) *Batch {
	b := &Batch{}
	if pointCap > 0 {
		b.pts = make([]Point, 0, pointCap)
		if dims > 0 {
			b.metrics = make([]float64, 0, pointCap*dims)
		}
		if nattrs > 0 {
			b.attrs = make([]int32, 0, pointCap*nattrs)
		}
	}
	return b
}

// Len reports the number of points in the batch.
func (b *Batch) Len() int {
	if b.borrowed != nil {
		return len(b.borrowed)
	}
	return len(b.pts)
}

// Reset empties the batch (and drops any borrow), retaining every
// slab's capacity for reuse.
func (b *Batch) Reset() {
	b.metrics = b.metrics[:0]
	b.attrs = b.attrs[:0]
	b.pts = b.pts[:0]
	b.borrowed = nil
	b.ackT = nil
}

// finishAck fires the batch's commit-tracking tag, if any, exactly
// once: the tag is consumed by the call.
func (b *Batch) finishAck() {
	if t := b.ackT; t != nil {
		b.ackT = nil
		t.done(b.ackOff)
	}
}

// Borrow turns the (empty) batch into a zero-copy wrapper around
// caller-owned points: Points returns pts itself and nothing is
// copied. The points and their backing arrays are shared with every
// subsequent owner of the batch until its next Reset, so the lender
// must keep them immutable for the batch's lifetime — this is how
// ingest.Push's Send and SliceSource hand caller points to the engine
// without a copy (the engine's routing deep-copy is what severs the
// sharing when there are several shards). Borrow on a non-empty batch
// panics; Append on a borrowed batch panics.
func (b *Batch) Borrow(pts []Point) {
	if b.Len() != 0 {
		panic("core: Batch.Borrow on a non-empty batch")
	}
	b.borrowed = pts
}

// Append copies one row into the slabs. metrics and attrs are read
// during the call only; the caller keeps them (per-row parser scratch
// is the intended usage).
func (b *Batch) Append(metrics []float64, attrs []int32, time float64) {
	if b.borrowed != nil {
		panic("core: Batch.Append on a borrowed batch")
	}
	mc, ac := cap(b.metrics), cap(b.attrs)
	m0, a0 := len(b.metrics), len(b.attrs)
	b.metrics = append(b.metrics, metrics...)
	b.attrs = append(b.attrs, attrs...)
	if cap(b.metrics) != mc || cap(b.attrs) != ac {
		// A slab grew: every existing view points into the old backing
		// array. Rebase them onto the new slab (row lengths are the
		// offsets), which keeps Points free and appends eager.
		b.rebase()
	}
	m1, a1 := len(b.metrics), len(b.attrs)
	b.pts = append(b.pts, Point{
		Metrics: b.metrics[m0:m1:m1],
		Attrs:   b.attrs[a0:a1:a1],
		Time:    time,
	})
}

// rebase re-points every view at the current slabs after a
// reallocation moved them.
func (b *Batch) rebase() {
	mo, ao := 0, 0
	for i := range b.pts {
		ml, al := len(b.pts[i].Metrics), len(b.pts[i].Attrs)
		b.pts[i].Metrics = b.metrics[mo : mo+ml : mo+ml]
		b.pts[i].Attrs = b.attrs[ao : ao+al : ao+al]
		mo += ml
		ao += al
	}
}

// AppendPoint copies p's payload into the slabs. p is read during the
// call only.
func (b *Batch) AppendPoint(p *Point) { b.Append(p.Metrics, p.Attrs, p.Time) }

// AppendPoints bulk-copies a point slice into the slabs.
func (b *Batch) AppendPoints(pts []Point) {
	for i := range pts {
		b.Append(pts[i].Metrics, pts[i].Attrs, pts[i].Time)
	}
}

// Points returns the batch's operator-ready Point views, whose
// Metrics/Attrs sub-slice the slabs (or the borrowed points verbatim).
// The returned slice and everything it references belong to the batch:
// they are valid only until the batch is Reset or handed to another
// owner. Each view is capacity-clamped to its row, so appending
// through a view forces a fresh allocation instead of silently
// overwriting the next row.
func (b *Batch) Points() []Point {
	if b.borrowed != nil {
		return b.borrowed
	}
	return b.pts
}

// BatchPool is a bounded free list of Batches: Get hands out an empty
// batch (recycled when one is available, fresh otherwise) and Put
// returns a consumed batch for reuse, dropping it to the garbage
// collector when the pool is already full. The bound is what keeps a
// burst from pinning slab memory forever; the explicit free list — as
// opposed to sync.Pool — is what makes steady-state recycling
// deterministic enough to pin with testing.AllocsPerRun.
//
// Put also drops batches whose retained slab capacity exceeds
// maxRetainedBatchBytes: Reset keeps capacity, so without the cap one
// giant batch (e.g. a near-64MB mbserver push request decoded into a
// single loan) would pin its slabs in the free list for the pool's
// whole lifetime. An oversized pipeline (very wide metric vectors at
// large batch sizes) falls back to per-batch allocation instead of
// recycling — the pre-slab behavior, traded deliberately against
// unbounded idle memory.
//
// The pool is safe for concurrent use. Ownership is absolute: a batch
// passed to Put must not be touched again by the caller, and a batch
// from Get is exclusively the caller's until handed on.
type BatchPool struct {
	free chan *Batch
}

// maxRetainedBatchBytes bounds one recycled batch's retained slab
// capacity (8 MB — generous against any engine-sized batch, small
// against a session's lifetime).
const maxRetainedBatchBytes = 8 << 20

// NewBatchPool returns a pool retaining at most capacity idle batches
// (minimum 1).
func NewBatchPool(capacity int) *BatchPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BatchPool{free: make(chan *Batch, capacity)}
}

// Get returns an empty batch, recycled if one is idle.
func (p *BatchPool) Get() *Batch {
	select {
	case b := <-p.free:
		b.Reset()
		return b
	default:
		return &Batch{}
	}
}

// Put returns a batch to the pool (dropped if the pool is full or the
// batch's retained slab capacity exceeds maxRetainedBatchBytes). nil
// is ignored.
func (p *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	// Drop any borrow now, not at the next Get: an idle pooled wrapper
	// must not pin the lender's points (and their interior arrays) for
	// the pool's lifetime. An unfired ack tag is dropped too — a batch
	// recycled without finishAck was never consumed, and its read must
	// stay uncommitted.
	b.borrowed = nil
	b.ackT = nil
	if cap(b.metrics)*8+cap(b.attrs)*4+cap(b.pts)*int(unsafe.Sizeof(Point{})) > maxRetainedBatchBytes {
		return
	}
	select {
	case p.free <- b:
	default:
	}
}
