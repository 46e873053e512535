package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"macrobase/internal/core"
)

// ErrProducerClosed is returned by PushProducer.SendBatch and
// PushProducer.Send after the producer's partition has been closed.
var ErrProducerClosed = errors.New("ingest: push producer is closed")

// Push is an in-memory partitioned push source: N independent
// producers, each owning one partition, hand point batches to the
// streaming engine through bounded channels. It is the programmatic
// ingest backend for "fast data" that is generated in-process or
// arrives over a network surface (mbserver's /stream/{id}/push
// endpoint feeds a resident session through one of these).
//
// The data plane is recycled end-to-end: batches are core.Batch slabs
// drawn from the source's free list. Producers that care about
// allocation rates use the buffer loan API — GetBatch hands out an
// empty recycled batch, the producer fills its slabs, SendBatch
// transfers ownership to the stream — and the engine returns consumed
// batches to the same free list through the NextBatchInto ownership
// swap, so a steady-state producer->engine round trip allocates
// nothing. The legacy Send([]Point) API rides the same machinery by
// wrapping the points in a borrowed batch (core.Batch.Borrow) — no
// producer-side copy; ownership of pts and its interior slices
// transfers to the stream, exactly as before.
//
// Each partition delivers through one log and one cursor (see
// pushPartition): a read copies from the log at the cursor, unless a
// batch may skip the log and go to the engine whole. EnableReplay
// changes only when a delivered batch is released and whether a batch
// may skip the log, never which points a read returns.
//
// Backpressure, not buffering, absorbs bursts: a partition holds at
// most pushQueueDepth in-flight batches, and Send blocks (or fails on
// its context) once the pipeline falls behind — the producer-side
// equivalent of the engine's bounded shard channels, so an overwhelmed
// consumer is visible at the producer instead of hidden by an
// unbounded queue. The blocking is metered: IngestStats exposes each
// partition's live queue depth and the cumulative nanoseconds its
// producers have spent blocked on a full queue, so backpressure is
// observable before clients time out.
//
// Lifecycle: each producer is closed independently; a partition
// signals end-of-stream once it is closed and fully drained, and the
// whole stream ends when every partition has. Stopping the consuming
// session early is always safe — NextBatchInto honors its context, so
// producers blocked in Send fail fast with the session gone only if
// they pass a bounded context (use one).
type Push struct {
	parts []*pushPartition
	pool  *core.BatchPool
}

// pushPartition is one partition's channel, its close signal and its
// delivery log. The data channel is never closed (closing would race
// concurrent Sends); end-of-stream is the closed channel plus an
// empty queue.
type pushPartition struct {
	ch        chan *core.Batch
	closed    chan struct{}
	closeOnce sync.Once // lives on the partition: producer handles are cheap copies
	pool      *core.BatchPool

	// finished is raised by the consumer once it has decided the
	// partition is at end-of-stream (closed and observed-empty). It is
	// the close-then-drain race fix: a Send that wins a queue slot
	// after the consumer's final drain observes finished and reports
	// ErrProducerClosed instead of silently stranding a "delivered"
	// batch (see send). Send returning nil therefore guarantees the
	// consumer received the batch.
	finished atomic.Bool

	// delivered is the cursor: the absolute offset of the next point
	// to deliver, which is also the number of points delivered so far
	// and the partition's checkpoint offset. Written under mu, read
	// lock-free by Offset.
	delivered atomic.Int64

	// The delivery log, guarded by mu (one consumer reads, while Ack
	// may run on any goroutine). log holds dequeued batches, each
	// addressed by the absolute offset of its first point; end is the
	// offset just past the last logged point and held the points the
	// log holds. Every delivery is a copy out of the log at the cursor
	// (serve), except a batch that may skip the log (see
	// NextBatchInto). An entry is released to the pool by release:
	// without replay as soon as the cursor passes it, with replay once
	// Ack covers it. While held is at least rmax, nothing more is
	// logged until an Ack frees space (backpressure toward the
	// checkpointing layer, never silent loss); without replay the log
	// is empty whenever the cursor reaches end, so that never stalls.
	mu     sync.Mutex
	replay bool
	log    []logEntry
	end    int64
	held   int
	rmax   int
	ackCh  chan struct{}

	// Producer-side counters (see core.PartitionIngestStats).
	blockedNanos atomic.Int64
	batches      atomic.Int64
	points       atomic.Int64
}

// logEntry is one logged batch and the absolute offset of its first
// point.
type logEntry struct {
	start int64
	b     *core.Batch
}

const (
	// pushQueueDepth bounds each partition's in-flight batches: a
	// producer may run a few batches ahead of the engine, and a slow
	// pipeline shows up as producer backpressure (a blocked Send, a
	// blocked /push request), not as unbounded buffering.
	pushQueueDepth = 4
	// replayMaxPoints caps the points one partition's log holds (see
	// EnableReplay).
	replayMaxPoints = 1 << 20
)

// NewPush returns a push source with partitions independent producer
// partitions, each buffering at most pushQueueDepth batches.
// Partitions defaults to 1.
func NewPush(partitions int) *Push {
	if partitions <= 0 {
		partitions = 1
	}
	p := &Push{
		parts: make([]*pushPartition, partitions),
		// Free-list bound: every partition can have a full queue plus
		// one batch being filled and one being consumed.
		pool: core.NewBatchPool(partitions * (pushQueueDepth + 2)),
	}
	for i := range p.parts {
		p.parts[i] = &pushPartition{
			ch:     make(chan *core.Batch, pushQueueDepth),
			closed: make(chan struct{}),
			pool:   p.pool,
			rmax:   replayMaxPoints,
			ackCh:  make(chan struct{}, 1),
		}
	}
	return p
}

// NumPartitions reports the partition count.
func (p *Push) NumPartitions() int { return len(p.parts) }

// EnableReplay makes every partition keep what it delivered, so a
// resume can seek back into it (SeekTo): a logged batch is released
// only once a checkpoint acknowledges it, up to replayMaxPoints
// (1<<20) held points per partition. The cost is one copy per
// delivered point, since a logged batch cannot be handed to the engine
// zero-copy (the engine recycles what it consumes); leave replay off
// for fire-and-forget streams to keep the zero-copy swap.
//
// When a partition's log is full, delivery stalls until an Ack
// releases part of it: an unchecked checkpoint backlog turns into
// ingest backpressure rather than dropped replay state.
//
// Must be called before the consuming session starts and before any
// producer sends.
func (p *Push) EnableReplay() {
	for _, pp := range p.parts {
		pp.replay = true
	}
}

// Partitions implements core.PartitionedSource. The engine consumes
// each partition from exactly one ingest goroutine.
func (p *Push) Partitions() []core.PartitionStream {
	out := make([]core.PartitionStream, len(p.parts))
	for i, pp := range p.parts {
		out[i] = pp
	}
	return out
}

// Producer returns the handle for partition i (panics on a bad index,
// like a slice). Handles are safe for concurrent use; several
// goroutines may share one partition's producer, at the cost of
// interleaving their batches.
func (p *Push) Producer(i int) *PushProducer {
	return &PushProducer{part: p.parts[i]}
}

// CloseAll closes every producer: the stream ends once the queued
// batches drain. Idempotent.
func (p *Push) CloseAll() {
	for i := range p.parts {
		p.Producer(i).Close()
	}
}

// IngestStats implements core.IngestObservable: one entry per
// partition. Queued is the number of batches buffered ahead of the
// engine right now; BlockedNanos accumulates the time producers spent
// blocked on a full queue; Batches/Points count what has been
// successfully enqueued. It only loads atomics, so a read moves no
// other read, and it is safe to call concurrently with producers and
// the consuming engine.
func (p *Push) IngestStats() []core.PartitionIngestStats {
	out := make([]core.PartitionIngestStats, len(p.parts))
	for i, pp := range p.parts {
		out[i] = core.PartitionIngestStats{
			Queued:       len(pp.ch),
			BlockedNanos: pp.blockedNanos.Load(),
			Batches:      pp.batches.Load(),
			Points:       pp.points.Load(),
		}
	}
	return out
}

// NextBatchInto implements core.PartitionStream. Every delivery is
// serve's copy out of the log at the cursor, with one exception: without
// replay, a dequeued batch no larger than max skips the log and is
// handed to the engine whole, with dst kept in the source's pool in
// exchange (the zero-copy ownership swap). After close, whatever is
// already queued is drained before ErrEndOfStream.
func (pp *pushPartition) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	for {
		pp.mu.Lock()
		if pp.delivered.Load() < pp.end {
			b := pp.serve(dst, max)
			pp.mu.Unlock()
			return b, nil
		}
		full := pp.held >= pp.rmax
		pp.mu.Unlock()
		if full {
			// Nothing left to serve and no room to log more:
			// backpressure until a checkpoint acknowledges (and
			// releases) part of the log.
			select {
			case <-pp.ackCh:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		b, err := pp.dequeue(ctx)
		if err != nil {
			return nil, err
		}
		pp.mu.Lock()
		start := pp.end
		pp.end += int64(b.Len())
		if !pp.replay && b.Len() <= max {
			pp.delivered.Store(pp.end)
			pp.mu.Unlock()
			pp.pool.Put(dst)
			return b, nil
		}
		pp.log = append(pp.log, logEntry{start: start, b: b})
		pp.held += b.Len()
		pp.mu.Unlock()
	}
}

// dequeue takes the next producer batch off the queue, implementing
// the end-of-stream protocol: after close, drain whatever is queued;
// once the queue is observed empty, raise finished and drain one final
// time. The final drain closes the race window — a sender either
// enqueued before it (and is drained here, now or on a later call) or
// enqueued after the finished store (and observes finished in send,
// reporting ErrProducerClosed instead of claiming delivery).
func (pp *pushPartition) dequeue(ctx context.Context) (*core.Batch, error) {
	select {
	case b := <-pp.ch:
		return b, nil
	case <-pp.closed:
		select {
		case b := <-pp.ch:
			return b, nil
		default:
		}
		pp.finished.Store(true)
		select {
		case b := <-pp.ch:
			return b, nil
		default:
			return nil, core.ErrEndOfStream
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// serve copies into dst at most max points of the logged entry that
// holds the cursor (never more than one entry a call: the engine takes
// a short batch as it is) and advances the cursor. Without replay it
// then releases what the cursor has passed. Caller holds mu, and
// delivered < end.
func (pp *pushPartition) serve(dst *core.Batch, max int) *core.Batch {
	cur := pp.delivered.Load()
	e := pp.log[sort.Search(len(pp.log), func(i int) bool { return pp.log[i].end() > cur })]
	pts := e.b.Points()
	from := int(cur - e.start)
	to := min(from+max, len(pts))
	dst.AppendPoints(pts[from:to])
	pp.delivered.Store(cur + int64(to-from))
	if !pp.replay {
		pp.release(cur + int64(to-from))
	}
	return dst
}

// release returns to the pool every logged entry that ends at or below
// off, but never one the cursor has not passed, and compacts the log
// in place so its backing array is reused. Caller holds mu.
func (pp *pushPartition) release(off int64) {
	off = min(off, pp.delivered.Load())
	n := 0
	for ; n < len(pp.log) && pp.log[n].end() <= off; n++ {
		pp.held -= pp.log[n].b.Len()
		pp.pool.Put(pp.log[n].b)
	}
	k := copy(pp.log, pp.log[n:])
	clear(pp.log[k:])
	pp.log = pp.log[:k]
}

// end is the absolute offset just past the entry's last point.
func (e logEntry) end() int64 { return e.start + int64(e.b.Len()) }

// Offset implements core.CheckpointablePartition: the cursor, which is
// the number of points delivered so far.
func (pp *pushPartition) Offset() int64 { return pp.delivered.Load() }

// Ack implements core.CheckpointablePartition: it releases every
// logged batch that ends at or below off and that the cursor has
// passed, and wakes a delivery stalled on a full log. Without replay
// the cursor has already released all it passed, so Ack frees nothing.
// Safe to call from any goroutine.
func (pp *pushPartition) Ack(off int64) {
	pp.mu.Lock()
	pp.release(off)
	pp.mu.Unlock()
	select {
	case pp.ackCh <- struct{}{}:
	default:
	}
}

// SeekTo implements core.CheckpointablePartition: it moves the cursor
// so the next point served is absolute offset off. Only offsets the
// log still holds (not yet released by an Ack) can be sought, so it
// needs EnableReplay. Call only while no consumer is reading (between
// sessions: resume-time repositioning).
func (pp *pushPartition) SeekTo(off int64) error {
	if !pp.replay {
		return errors.New("ingest: push partition is not seekable (call Push.EnableReplay before streaming)")
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	lo := pp.end
	if len(pp.log) > 0 {
		lo = pp.log[0].start
	}
	if off < lo || off > pp.end {
		return fmt.Errorf("ingest: cannot seek push partition to offset %d: retained range is [%d, %d] (earlier points were acked)", off, lo, pp.end)
	}
	pp.delivered.Store(off)
	return nil
}

// PushProducer feeds one partition. The zero value is not usable;
// obtain producers from Push.Producer.
type PushProducer struct {
	part *pushPartition
}

// GetBatch loans an empty recycled batch for the producer to fill and
// SendBatch. Pair every GetBatch with exactly one SendBatch or
// PutBatch.
func (pr *PushProducer) GetBatch() *core.Batch { return pr.part.pool.Get() }

// PutBatch returns an unused loan to the free list (e.g. after a
// decode error aborted filling it). The caller must not touch b again.
func (pr *PushProducer) PutBatch(b *core.Batch) { pr.part.pool.Put(b) }

// SendBatch queues one loaned batch, blocking while the partition's
// queue is full (backpressure). Ownership of b always transfers —
// delivered, recycled, or abandoned — so the caller must not touch it
// after the call regardless of the result. Returns ErrProducerClosed
// after Close, and ctx.Err() if the context expires while blocked; in
// both failure cases the batch was not delivered. A SendBatch racing
// Close is resolved exactly one way or the other: a nil return means
// the consumer received the batch, an error means it did not — except
// that a batch enqueued in the narrow window around the consumer's
// final drain may be delivered AND reported ErrProducerClosed, the
// at-least-once ambiguity a retrying producer resolves as a duplicate,
// never a loss.
func (pr *PushProducer) SendBatch(ctx context.Context, b *core.Batch) error {
	if b == nil || b.Len() == 0 {
		pr.part.pool.Put(b)
		return nil
	}
	return pr.part.send(ctx, b)
}

// Send queues one batch of points, wrapped zero-copy in a borrowed
// recycled batch. The stream takes ownership of pts and of the
// Metrics/Attrs slices inside: the caller must not mutate them after
// Send returns (re-sending the same immutable batch is fine — the
// engine's routing deep-copy is what ends the sharing, before the
// partition's next read). Blocking, error, and close semantics match
// SendBatch.
func (pr *PushProducer) Send(ctx context.Context, pts []core.Point) error {
	if len(pts) == 0 {
		return nil
	}
	b := pr.part.pool.Get()
	b.Borrow(pts)
	return pr.part.send(ctx, b)
}

// send enqueues b, metering the time spent blocked on a full queue.
// The point count is read before the channel send: after a successful
// send the consumer owns b and may already be resetting it.
//
// The post-enqueue finished check closes the close-then-drain race: if
// the consumer had already concluded end-of-stream when this batch won
// its queue slot, the batch will never be consumed, so the send must
// not claim success. (The converse race — enqueue before the consumer's
// final drain, finished observed true anyway — can misreport a
// delivered batch as failed; that is the at-least-once direction, and a
// retrying producer then duplicates rather than loses. Send nil means
// delivered, always.)
func (pp *pushPartition) send(ctx context.Context, b *core.Batch) error {
	select {
	case <-pp.closed:
		pp.pool.Put(b)
		return ErrProducerClosed
	default:
	}
	n := int64(b.Len())
	enqueued := false
	var blocked time.Duration
	select {
	case pp.ch <- b:
		enqueued = true
	default:
	}
	if !enqueued {
		// Queue full: block, and meter how long (the backpressure
		// signal).
		start := time.Now()
		select {
		case pp.ch <- b:
			blocked = time.Since(start)
			enqueued = true
		case <-pp.closed:
			pp.blockedNanos.Add(time.Since(start).Nanoseconds())
			pp.pool.Put(b)
			return ErrProducerClosed
		case <-ctx.Done():
			pp.blockedNanos.Add(time.Since(start).Nanoseconds())
			pp.pool.Put(b)
			return ctx.Err()
		}
	}
	if blocked > 0 {
		pp.blockedNanos.Add(blocked.Nanoseconds())
	}
	if pp.finished.Load() {
		// The consumer is gone; the batch sits abandoned in the queue
		// (reclaimed with the source) and was not delivered.
		return ErrProducerClosed
	}
	pp.batches.Add(1)
	pp.points.Add(n)
	return nil
}

// Close marks the partition finished: queued batches still drain, then
// the partition reports end-of-stream. Idempotent across every handle
// to the same partition; Sends observing the close fail with
// ErrProducerClosed.
func (pr *PushProducer) Close() {
	pr.part.closeOnce.Do(func() { close(pr.part.closed) })
}

var _ core.PartitionedSource = (*Push)(nil)
var _ core.CheckpointablePartition = (*pushPartition)(nil)
var _ core.IngestObservable = (*Push)(nil)
