package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
)

// DefaultRoutingBuckets is the default virtual-bucket count of the
// routing table. The effective count is rounded up to a multiple of the
// shard count (RoutingBuckets) so the identity table reproduces
// HashPartition placement bit-exactly until the first rebalance.
const DefaultRoutingBuckets = 256

// rebalanceAbove is the imbalance trigger of a rebalancing run: the
// hottest healthy shard's share of the measurement window, multiplied
// by the shard count. 1.0 is perfect balance; at or below the trigger
// the table is left alone (hysteresis — rebalancing has a cost: a moved
// bucket splits its attribute sets' counts across two shards'
// summaries).
const rebalanceAbove = 1.5

// RoutingBuckets is the virtual-bucket count V of a shards-way run: the
// smallest multiple of shards >= max(DefaultRoutingBuckets, shards),
// so that the identity table assign[b] = b % shards makes
// (hash % V) % shards == hash % shards: routing is bit-identical to
// HashPartition for every shard count until a rebalance fires. Code
// that places points in buckets (HashBucket) ahead of a run takes the
// count from here.
func RoutingBuckets(shards int) int {
	v := max(DefaultRoutingBuckets, shards)
	if rem := v % shards; rem != 0 {
		v += shards - rem
	}
	return v
}

// initRouting installs the run's routing state. A multi-shard run
// starts on the identity table over RoutingBuckets(shards) buckets, so
// placement is bit-identical to HashPartition until a rebalance; the
// per-partition bucket load counters exist only when the run
// rebalances. A single shard has no table: its reads are handed over
// whole.
func (r *StreamRunner) initRouting(shards, parts int) {
	r.route.Store(nil)
	r.bucketLoads = nil
	if shards == 1 {
		return
	}
	assign := make([]int32, RoutingBuckets(shards))
	for b := range assign {
		assign[b] = int32(b % shards)
	}
	r.route.Store(&routeTable{assign: assign})
	if r.Rebalance {
		r.bucketLoads = make([][]atomic.Int64, parts)
		for i := range r.bucketLoads {
			r.bucketLoads[i] = make([]atomic.Int64, len(assign))
		}
	}
}

// routeTable is one immutable routing epoch: assign[bucket] = shard.
// The scatter loops load the current table through an atomic pointer
// once per read batch; the coordinator publishes a successor by storing
// a fresh table (copy-on-write — an in-flight reader keeps its epoch
// for the rest of its batch, which only defers a move by one batch).
type routeTable struct {
	epoch  int64
	assign []int32
}

// hashAttrs is the FNV-1a attribute hash shared by HashPartition and
// the bucket router. Must stay byte-for-byte identical between the two:
// the identity routing table is bit-exact with HashPartition only
// because both reduce the same hash.
func hashAttrs(attrs []int32) uint32 {
	h := uint32(2166136261)
	for _, a := range attrs {
		v := uint32(a)
		h ^= v & 0xff
		h *= 16777619
		h ^= (v >> 8) & 0xff
		h *= 16777619
		h ^= (v >> 16) & 0xff
		h *= 16777619
		h ^= v >> 24
		h *= 16777619
	}
	return h
}

// HashBucket maps a point to a virtual routing bucket in [0, buckets).
// Points sharing an attribute vector always share a bucket, so a bucket
// move relocates whole attribute sets. Attribute-less points return -1:
// they carry no itemsets, so the router spreads them round-robin across
// buckets instead of pinning them anywhere (see the scatter loop).
func HashBucket(p *Point, buckets int) int {
	if len(p.Attrs) == 0 {
		return -1
	}
	return int(hashAttrs(p.Attrs) % uint32(buckets))
}

// HashPartition is the placement oracle: the shard a point's FNV-1a
// attribute hash selects among shards, which is where the routing
// table's identity layout places it (TestIdentityTableMatchesHashPartition).
// The runner never calls it; tests and data generators use it to know
// where a point lands before the first rebalance. Points with identical
// attribute vectors always share a shard, so a full attribute set's
// occurrences concentrate there; sub-combinations of multi-attribute
// points still span shards, and their merged counts are exact only up
// to the summed sketch error bounds. Points without attributes map to
// shard 0 here, but the runner spreads them round-robin — they carry no
// itemsets, so their placement never affects explanations.
func HashPartition(p *Point, shards int) int {
	if len(p.Attrs) == 0 {
		return 0
	}
	return int(hashAttrs(p.Attrs) % uint32(shards))
}

// rebalanceAssign is the greedy rebalancing step, pure so it can be
// unit-tested: given the current assignment, the per-bucket load window
// win, and per-shard health, it rewrites assign in place and returns
// the number of buckets moved.
//
// Phase 1 evacuates buckets resident on unhealthy shards to the
// coolest healthy shard, unconditionally. Phase 2 fires only when the
// hottest healthy shard's windowed share times the shard count exceeds
// above: it repeatedly moves the largest bucket that fits inside the
// hot/cool gap (a move must strictly reduce the pair's maximum, which
// guarantees termination) until the window imbalance drops to the
// midpoint target (1+above)/2, no improving bucket remains, or
// maxMoves is spent.
func rebalanceAssign(assign []int32, win []int64, healthy []bool, above float64, maxMoves int) int {
	shards := len(healthy)
	if shards < 2 || !slices.Contains(healthy, true) {
		return 0
	}
	loads := make([]int64, shards)
	var total int64
	for b, s := range assign {
		loads[s] += win[b]
		total += win[b]
	}
	moves := 0
	move := func(b, to int) {
		loads[assign[b]] -= win[b]
		loads[to] += win[b]
		assign[b] = int32(to)
		moves++
	}
	// Phase 1: a dead shard keeps none of its buckets, loaded or not —
	// points routed there are dropped on the floor, so every bucket is
	// worth saving regardless of its window count.
	for b, s := range assign {
		if healthy[s] {
			continue
		}
		move(b, extremeShard(loads, healthy, false))
		if moves >= maxMoves {
			return moves
		}
	}
	if total == 0 {
		return moves
	}
	imbalance := func() float64 {
		return float64(loads[extremeShard(loads, healthy, true)]) / float64(total) * float64(shards)
	}
	if imbalance() <= above {
		return moves
	}
	// Phase 2: settle toward the midpoint between perfect balance and
	// the trigger, so a round that fires leaves real headroom below the
	// trigger (hysteresis against move churn).
	target := (1 + above) / 2
	for moves < maxMoves && imbalance() > target {
		h, c := extremeShard(loads, healthy, true), extremeShard(loads, healthy, false)
		if h == c {
			break
		}
		gap := loads[h] - loads[c]
		best, bw := -1, int64(0)
		for b, s := range assign {
			if int(s) == h && win[b] > bw && win[b] < gap {
				best, bw = b, win[b]
			}
		}
		if best < 0 {
			break // every remaining bucket is too big to help
		}
		move(best, c)
	}
	return moves
}

// extremeShard returns the hottest healthy shard by load (hot) or the
// coolest, the lowest index winning ties.
func extremeShard(loads []int64, healthy []bool, hot bool) int {
	e := -1
	for s, l := range loads {
		if healthy[s] && (e < 0 || (hot && l > loads[e]) || (!hot && l < loads[e])) {
			e = s
		}
	}
	return e
}

// startIngest launches one ingest loop per partition under the run's
// stop context, which RequestStop cancels (at once, if a stop raced
// ahead of Start). The first loop to fail records its source error in
// run and cancels the rest; Wait waits for every loop to exit.
func (r *StreamRunner) startIngest(run *liveRun, parts []PartitionStream, pool *BatchPool) {
	ctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	r.cancelIngest = cancel
	if r.stopReq {
		cancel()
	}
	r.mu.Unlock()
	batch := r.BatchSize
	if batch <= 0 {
		batch = 4096
	}
	for i, ps := range parts {
		in := &ingestLoop{r: r, ps: ps, workers: run.workers, pool: pool, batch: batch,
			tracker: run.trackers[i], staging: make([]*Batch, len(run.workers))}
		in.cp, _ = ps.(CheckpointablePartition)
		if r.bucketLoads != nil {
			in.loads = r.bucketLoads[i]
		}
		run.ingest.Add(1)
		go func() {
			defer run.ingest.Done()
			if err := in.run(ctx); err != nil {
				run.failOnce.Do(func() { run.failure = fmt.Errorf("core: source: %w", err) })
				cancel()
			}
		}()
	}
}

// ingestLoop is one partition's ingest goroutine and its state: read
// into an engine-loaned recycled Batch (cancellable mid-call), hand it
// to the worker whole when there is one shard, otherwise scatter each
// point's payload into pooled per-shard batches, and send over the
// bounded channels. Every batch it touches comes from and returns to
// the run's free list, so the steady-state loop never allocates.
type ingestLoop struct {
	r       *StreamRunner
	ps      PartitionStream
	workers []*shardWorker
	pool    *BatchPool
	batch   int
	// tracker and cp are the partition's commit tracker and offset
	// protocol; both nil unless the partition is checkpointable.
	tracker *ackTracker
	cp      CheckpointablePartition
	// loads are this partition's bucket load counters (single writer:
	// this goroutine); nil unless the run rebalances.
	loads []atomic.Int64
	// rr spreads attribute-less points round-robin across buckets
	// (they carry no itemsets, so placement is free — pinning them to
	// one shard, as HashPartition does, turns a metrics-only stream
	// into a guaranteed hot spot). Local to the goroutine: no
	// contention, and cross-partition collisions don't matter for
	// spreading.
	rr uint32
	// staging[s] is the read's batch for shard s; entries are nil once
	// handed to a worker and re-loaned on demand.
	staging []*Batch
}

// run is the loop. Returns a non-nil error only for genuine source
// failures; cancellation and end-of-stream return nil.
func (in *ingestLoop) run(ctx context.Context) error {
	ib := in.pool.Get() // the loan each read fills (or swaps away)
	defer func() {
		// Return every unsent loan to the pool.
		in.pool.Put(ib)
		for _, sb := range in.staging {
			in.pool.Put(sb)
		}
	}()
	for {
		if ctx.Err() != nil {
			return nil
		}
		ib.Reset()
		nb, err := in.ps.NextBatchInto(ctx, ib, in.batch)
		if err == ErrEndOfStream {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil // cancelled mid-read: a stop, not a failure
			}
			return err
		}
		ib = nb // ours now, whether filled in place or swapped
		if ctx.Err() != nil {
			// A stop arrived during a read that does not watch ctx:
			// the batch it returned is dropped, not counted or routed.
			return nil
		}
		in.r.notePoints(int64(ib.Len()))
		if len(in.workers) == 1 {
			// The worker takes ownership of the whole batch: routing
			// degenerates to a pointer handoff, no copy at all.
			in.staging[0], ib = ib, nil
		} else {
			in.scatter(ib)
		}
		if !in.dispatch(ctx) {
			return nil // cancelled: the deferred sweep recycles the undelivered loans
		}
		if ib == nil {
			ib = in.pool.Get()
		}
	}
}

// scatter appends each point's payload of ib to its shard's staged
// batch, in one pass: hash to a bucket (round-robin for attribute-less
// points), count the bucket's load when the run rebalances, and look
// the shard up in the routing table. The copy severs every reference
// to ib, which is what lets it be refilled next read. The table is
// loaded once per read: a rebalance published mid-batch takes effect
// on the next read, which only defers the move by one batch.
func (in *ingestLoop) scatter(ib *Batch) {
	rt := in.r.route.Load()
	nb := uint32(len(rt.assign))
	rr, loads, staging := in.rr, in.loads, in.staging
	pts := ib.Points()
	for i := range pts {
		var b uint32
		if len(pts[i].Attrs) == 0 {
			b = rr % nb
			rr++
		} else {
			b = hashAttrs(pts[i].Attrs) % nb
		}
		if loads != nil {
			loads[b].Add(1)
		}
		s := rt.assign[b]
		sb := staging[s]
		if sb == nil {
			sb = in.pool.Get()
			staging[s] = sb
		}
		sb.AppendPoint(&pts[i])
	}
	in.rr = rr
}

// dispatch tags and sends one read's per-shard batches, reporting false
// if the run was cancelled while a send was blocked on a shard's
// backpressure. When the partition is checkpointable, the read is
// registered with the commit tracker before any batch is sent —
// registration-before-send is what makes a batch's finishAck unable to
// race past its own begin — and each batch is tagged so the workers'
// finishAck calls advance the committed offset. A read abandoned
// mid-send leaves its tracker entry permanently outstanding, which is
// correct: the committed offset must not move past points that were
// never consumed.
func (in *ingestLoop) dispatch(ctx context.Context) bool {
	if in.tracker != nil {
		off, k := in.cp.Offset(), 0
		for _, sb := range in.staging {
			if sb != nil {
				sb.ackT, sb.ackOff = in.tracker, off
				k++
			}
		}
		if k > 0 {
			in.tracker.begin(off, k)
		}
	}
	for s, sb := range in.staging {
		if sb == nil {
			continue
		}
		select {
		case in.workers[s].data <- sb:
			in.staging[s] = nil
		case <-ctx.Done():
			return false
		}
	}
	return true
}
