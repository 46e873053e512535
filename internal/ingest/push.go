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

// ErrProducerClosed is returned by PushProducer.Send after the
// producer's partition has been closed.
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

	// Windowed-rate sampler state (see PartitionIngestStats' PerSec
	// fields): stats reads more than rateWindow apart diff the
	// cumulative counters into per-second gauges; reads inside the
	// window serve the previous gauges, so hot pollers don't produce
	// noisy near-zero-interval rates.
	rateMu     sync.Mutex
	now        func() time.Time // clock seam for tests
	lastSample time.Time
	prev       []rateSnap
	gauges     []rateGauge
	rateWindow time.Duration
}

// rateSnap is one partition's cumulative counters at the last window
// boundary.
type rateSnap struct {
	points, batches, blockedNanos int64
}

// rateGauge is one partition's computed per-second rates over the most
// recent complete window.
type rateGauge struct {
	pointsPerSec, batchesPerSec, blockedPerSec float64
}

// pushPartition is one partition's channel plus its close signal. The
// data channel is never closed (closing would race concurrent Sends);
// end-of-stream is the closed channel plus an empty queue.
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

	// delivered counts points handed to the consumer — the partition's
	// checkpoint offset (absolute replay cursor position when replay is
	// on).
	delivered atomic.Int64

	// Consumer-side split state (one consumer per partition): a queued
	// batch larger than the engine's max is served in max-sized copies
	// out of cur until exhausted, then recycled.
	cur *core.Batch
	off int

	// Replay state (EnableReplay), guarded by rmu. Dequeued batches are
	// retained in rlog — a contiguous window of the delivered stream,
	// addressed by absolute point offsets — and served to the consumer
	// by copy from the rcur cursor, so SeekTo can rewind delivery to
	// any retained offset. Ack trims entries wholly below the acked
	// offset. When retaining another batch would exceed rmax points,
	// delivery stalls until an Ack frees space (backpressure toward the
	// checkpointing layer, never silent loss).
	rmu      sync.Mutex
	replayOn bool
	rlog     []replayEntry
	rend     int64 // absolute offset just past the last retained point
	rcur     int64 // next absolute offset to deliver
	rpts     int   // points currently retained
	rmax     int   // retention cap in points
	ackCh    chan struct{}

	// Producer-side counters (see core.PartitionIngestStats).
	blockedNanos atomic.Int64
	batches      atomic.Int64
	points       atomic.Int64
}

// replayEntry is one retained batch and the absolute offset of its
// first point.
type replayEntry struct {
	start int64
	b     *core.Batch
}

const (
	// pushQueueDepth bounds each partition's in-flight batches: a
	// producer may run a few batches ahead of the engine, and a slow
	// pipeline shows up as producer backpressure (a blocked Send, a
	// blocked /push request), not as unbounded buffering.
	pushQueueDepth = 4
	// replayMaxPoints caps the points one partition retains for replay
	// (see EnableReplay).
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
		pool:       core.NewBatchPool(partitions * (pushQueueDepth + 2)),
		now:        time.Now,
		prev:       make([]rateSnap, partitions),
		gauges:     make([]rateGauge, partitions),
		rateWindow: 250 * time.Millisecond,
	}
	for i := range p.parts {
		p.parts[i] = &pushPartition{
			ch:     make(chan *core.Batch, pushQueueDepth),
			closed: make(chan struct{}),
			pool:   p.pool,
		}
	}
	return p
}

// NumPartitions reports the partition count.
func (p *Push) NumPartitions() int { return len(p.parts) }

// EnableReplay switches every partition into replay mode, making the
// source checkpoint/resume-capable (core.SeekablePartition): delivered
// batches are retained — up to replayMaxPoints (1<<20) per partition —
// until acknowledged by a checkpoint, and SeekTo rewinds delivery to
// any retained offset. The cost is one copy per delivered point (the
// retained batch cannot be handed to the engine zero-copy, since the
// engine recycles what it consumes); leave replay off for fire-and-
// forget streams to keep the zero-copy swap path.
//
// When a partition's retention is full, delivery stalls until an Ack
// trims it: an unchecked checkpoint backlog turns into ingest
// backpressure rather than dropped replay state.
//
// Must be called before the consuming session starts and before any
// producer sends.
func (p *Push) EnableReplay() {
	for _, pp := range p.parts {
		pp.replayOn = true
		pp.rmax = replayMaxPoints
		pp.ackCh = make(chan struct{}, 1)
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

// IngestStats implements core.IngestObservable: one live entry per
// partition, appended to dst. Queued is the number of batches buffered
// ahead of the engine right now; BlockedNanos accumulates the time
// producers spent blocked on a full queue; Batches/Points count what
// has been successfully enqueued. Safe to call concurrently with
// producers and the consuming engine.
func (p *Push) IngestStats(dst []core.PartitionIngestStats) []core.PartitionIngestStats {
	base := len(dst)
	for _, pp := range p.parts {
		dst = append(dst, core.PartitionIngestStats{
			Queued:       len(pp.ch),
			BlockedNanos: pp.blockedNanos.Load(),
			Batches:      pp.batches.Load(),
			Points:       pp.points.Load(),
		})
	}
	p.sampleRates(dst[base:])
	return dst
}

// sampleRates fills in the windowed PerSec gauges for the freshly read
// cumulative entries (one per partition, in partition order). At most
// one window is closed per rateWindow of wall clock; entries read
// mid-window get the previous window's gauges.
func (p *Push) sampleRates(entries []core.PartitionIngestStats) {
	p.rateMu.Lock()
	defer p.rateMu.Unlock()
	now := p.now()
	if p.lastSample.IsZero() {
		// First read anchors the window; no rates until one elapses.
		p.lastSample = now
		for i := range entries {
			p.prev[i] = rateSnap{entries[i].Points, entries[i].Batches, entries[i].BlockedNanos}
		}
		return
	}
	if dt := now.Sub(p.lastSample); dt >= p.rateWindow {
		secs := dt.Seconds()
		for i := range entries {
			cur := rateSnap{entries[i].Points, entries[i].Batches, entries[i].BlockedNanos}
			p.gauges[i] = rateGauge{
				pointsPerSec:  float64(cur.points-p.prev[i].points) / secs,
				batchesPerSec: float64(cur.batches-p.prev[i].batches) / secs,
				blockedPerSec: float64(cur.blockedNanos-p.prev[i].blockedNanos) / 1e9 / secs,
			}
			p.prev[i] = cur
		}
		p.lastSample = now
	}
	for i := range entries {
		entries[i].PointsPerSec = p.gauges[i].pointsPerSec
		entries[i].BatchesPerSec = p.gauges[i].batchesPerSec
		entries[i].BlockedPerSec = p.gauges[i].blockedPerSec
	}
}

// NextBatchInto implements core.PartitionStream. A queued batch no
// larger than max is handed to the engine whole, with dst kept in the
// source's pool in exchange (the zero-copy ownership swap); an
// oversized batch is served in max-sized copies. After close, whatever
// is already queued is drained before ErrEndOfStream. In replay mode
// every delivery is instead a copy out of the retained log (see
// EnableReplay).
func (pp *pushPartition) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if pp.replayOn {
		return pp.nextReplay(ctx, dst, max)
	}
	if pp.cur != nil {
		return pp.serveSplit(dst, max), nil
	}
	b, err := pp.dequeue(ctx)
	if err != nil {
		return nil, err
	}
	return pp.take(b, dst, max), nil
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

// take hands a dequeued batch to the engine: whole (swapping dst into
// the pool) when it fits max, split otherwise.
func (pp *pushPartition) take(b *core.Batch, dst *core.Batch, max int) *core.Batch {
	if b.Len() <= max {
		pp.delivered.Add(int64(b.Len()))
		pp.pool.Put(dst)
		return b
	}
	pp.cur, pp.off = b, 0
	return pp.serveSplit(dst, max)
}

// serveSplit copies the next at-most-max points of cur into dst,
// recycling cur once exhausted.
func (pp *pushPartition) serveSplit(dst *core.Batch, max int) *core.Batch {
	pts := pp.cur.Points()
	end := pp.off + max
	if end > len(pts) {
		end = len(pts)
	}
	dst.AppendPoints(pts[pp.off:end])
	pp.delivered.Add(int64(end - pp.off))
	pp.off = end
	if pp.off >= len(pts) {
		pp.pool.Put(pp.cur)
		pp.cur, pp.off = nil, 0
	}
	return dst
}

// nextReplay is the replay-mode delivery path: serve from the retained
// log at the cursor, refilling the log from the queue when the cursor
// catches up, and stalling on a full log until an Ack trims it.
func (pp *pushPartition) nextReplay(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	for {
		pp.rmu.Lock()
		if pp.rcur < pp.rend {
			b := pp.serveReplay(dst, max)
			pp.rmu.Unlock()
			return b, nil
		}
		full := pp.rpts >= pp.rmax
		pp.rmu.Unlock()
		if full {
			// Nothing left to serve and no room to retain more:
			// backpressure until a checkpoint acknowledges (and trims)
			// part of the log.
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
		pp.rmu.Lock()
		pp.rlog = append(pp.rlog, replayEntry{start: pp.rend, b: b})
		pp.rend += int64(b.Len())
		pp.rpts += b.Len()
		pp.rmu.Unlock()
	}
}

// serveReplay copies the next at-most-max points at the cursor into
// dst — at most one retained entry's worth per call (the engine
// tolerates short batches). Caller holds rmu, and rcur < rend.
func (pp *pushPartition) serveReplay(dst *core.Batch, max int) *core.Batch {
	i := sort.Search(len(pp.rlog), func(i int) bool {
		e := &pp.rlog[i]
		return e.start+int64(e.b.Len()) > pp.rcur
	})
	e := &pp.rlog[i]
	pts := e.b.Points()
	from := int(pp.rcur - e.start)
	to := from + max
	if to > len(pts) {
		to = len(pts)
	}
	dst.AppendPoints(pts[from:to])
	pp.rcur += int64(to - from)
	pp.delivered.Store(pp.rcur)
	return dst
}

// Offset implements core.CheckpointablePartition: the number of points
// delivered to the consumer so far.
func (pp *pushPartition) Offset() int64 { return pp.delivered.Load() }

// Ack implements core.CheckpointablePartition: in replay mode, retained
// batches wholly below off are trimmed (and a stalled consumer woken);
// with replay off it is a no-op. Safe to call from any goroutine.
func (pp *pushPartition) Ack(off int64) {
	if !pp.replayOn {
		return
	}
	pp.rmu.Lock()
	for len(pp.rlog) > 0 {
		e := pp.rlog[0]
		if e.start+int64(e.b.Len()) > off {
			break
		}
		pp.rpts -= e.b.Len()
		pp.pool.Put(e.b)
		pp.rlog[0] = replayEntry{} // release the reference behind the window
		pp.rlog = pp.rlog[1:]
	}
	if len(pp.rlog) == 0 {
		pp.rlog = nil // let the drifted backing array go
	}
	pp.rmu.Unlock()
	if pp.ackCh != nil {
		select {
		case pp.ackCh <- struct{}{}:
		default:
		}
	}
}

// SeekTo implements core.SeekablePartition: rewind delivery so the
// next point served is absolute offset off. Only offsets still
// retained in the replay log (not yet acked) can be seeked to;
// requires EnableReplay. Call only while no consumer is reading (i.e.
// between sessions — resume-time repositioning).
func (pp *pushPartition) SeekTo(off int64) error {
	if !pp.replayOn {
		return errors.New("ingest: push partition is not seekable (call Push.EnableReplay before streaming)")
	}
	pp.rmu.Lock()
	defer pp.rmu.Unlock()
	lo := pp.rend
	if len(pp.rlog) > 0 {
		lo = pp.rlog[0].start
	}
	if off < lo || off > pp.rend {
		return fmt.Errorf("ingest: cannot seek push partition to offset %d: retained range is [%d, %d] (earlier points were acked)", off, lo, pp.rend)
	}
	pp.rcur = off
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
var _ core.SeekablePartition = (*pushPartition)(nil)
var _ core.IngestObservable = (*Push)(nil)
