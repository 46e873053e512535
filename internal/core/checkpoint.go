package core

import "sync"

// CheckpointablePartition is the one offset protocol: a
// PartitionStream implements it to take part in checkpoint and resume.
// Offsets are per-partition, monotonic point counts: a partition that
// has delivered N points reports Offset() == N, and every batch it
// hands out advances the offset by the batch's length. The engine
// (StreamRunner) tracks, per partition, the largest offset whose every
// point has been routed AND consumed by its shard worker — the
// committed offset — and a checkpoint is simply the vector of
// committed offsets.
//
// Ack(off) tells the source that everything below off has been
// durably checkpointed by the consumer: the source may discard replay
// state up to off (ingest.Push releases its delivery log up to there).
// The engine never acks; it only commits. The checkpointing layer
// (pipeline.StreamSession.Checkpoint) acks the committed offsets it
// hands out, and Ack must be safe to call concurrently with the
// consuming goroutine.
//
// SeekTo(off) repositions the stream so the next delivered point is
// point number off, which is what resume needs. A source that cannot
// seek, or cannot seek to off (below the last acked offset, whose data
// may be gone), says why in its error.
//
// Delivery is at-least-once: a crash between consumption and
// checkpoint re-delivers the tail since the last committed offset on
// resume. See doc.go, "Delivery semantics and failure model".
type CheckpointablePartition interface {
	PartitionStream
	// Offset reports the number of points delivered so far (monotonic
	// within a session; moved back only by SeekTo).
	Offset() int64
	// Ack acknowledges durable consumption of every point below off.
	Ack(off int64)
	// SeekTo makes off the next point delivered.
	SeekTo(off int64) error
}

// ackTracker tracks one partition's committed offset: the largest
// delivered offset whose every routed sub-batch has been consumed (or
// deliberately dropped by a quarantined shard — either way, the point
// will never be needed again by this run).
//
// The protocol: the ingest goroutine calls begin(off, k) after reading
// the batch that advanced the partition to offset off and splitting it
// into k per-shard sub-batches, before sending any of them; each
// sub-batch is tagged (Batch.ackT/ackOff) and calls done(off) exactly
// once when its shard worker finishes with it. Offsets within a
// partition are strictly increasing, so the committed offset advances
// over the contiguous prefix of fully-consumed reads.
//
// Cost: one short mutex acquisition per read and per consumed
// sub-batch — per-batch, never per-point, which is what keeps
// checkpoint bookkeeping off the ingest hot path.
type ackTracker struct {
	mu        sync.Mutex
	reads     []ackRead
	head      int
	committed int64
}

// ackRead is one in-flight read: the offset it advanced the partition
// to, and how many of its routed sub-batches are still unconsumed.
type ackRead struct {
	off         int64
	outstanding int
}

// begin registers a read at offset off fanned out into k sub-batches.
// Completed-prefix entries are compacted away first, so the slice's
// live window stays bounded by the number of in-flight reads (pipeline
// depth) and its capacity stabilizes: steady-state ingest appends into
// recycled storage instead of growing the slice one allocation at a
// time for the life of the run.
func (t *ackTracker) begin(off int64, k int) {
	t.mu.Lock()
	if t.head > 0 {
		n := copy(t.reads, t.reads[t.head:])
		t.reads = t.reads[:n]
		t.head = 0
	}
	t.reads = append(t.reads, ackRead{off: off, outstanding: k})
	t.mu.Unlock()
}

// done marks one of read off's sub-batches consumed, advancing the
// committed offset over the completed prefix.
func (t *ackTracker) done(off int64) {
	t.mu.Lock()
	for i := t.head; i < len(t.reads); i++ {
		if t.reads[i].off == off {
			t.reads[i].outstanding--
			break
		}
	}
	for t.head < len(t.reads) && t.reads[t.head].outstanding == 0 {
		t.committed = t.reads[t.head].off
		t.head++
	}
	if t.head == len(t.reads) {
		t.reads = t.reads[:0]
		t.head = 0
	}
	t.mu.Unlock()
}

// newTrackers builds one commit tracker per checkpointable partition,
// seeded at the partition's current offset (nonzero on a resumed
// source); the other entries are nil.
func newTrackers(parts []PartitionStream) []*ackTracker {
	trackers := make([]*ackTracker, len(parts))
	for i, ps := range parts {
		if cp, ok := ps.(CheckpointablePartition); ok {
			trackers[i] = &ackTracker{committed: cp.Offset()}
		}
	}
	return trackers
}

// get reads the committed offset.
func (t *ackTracker) get() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committed
}
