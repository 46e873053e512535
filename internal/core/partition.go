package core

import "context"

// PartitionStream is one partition of a partitioned source: an
// independent, ordered stream of point batches consumed by exactly one
// ingest goroutine. Its one read takes a context, so a blocked read can
// be cancelled mid-call (which makes session stop deadline-aware
// instead of "whenever the source next returns"), and is loaned an
// empty recycled Batch, so a steady-state read allocates nothing.
//
// NextBatchInto delivers the next at-most-max points in one of two
// ways, its choice per call:
//
//   - fill dst (handed over empty) and return dst; or
//   - return a different, ready-made batch of at most max points and
//     keep dst — the ownership swap. A source that already holds a
//     filled batch (ingest.Push queues whole producer batches) hands
//     it over without copying a byte, and keeps dst in its own pool so
//     both sides' free lists stay in equilibrium.
//
// Either way exactly one batch changes hands in each direction: the
// caller owns whatever comes back (and has relinquished dst if the
// source kept it), the source must retain no reference to the returned
// batch or its views. It returns ErrEndOfStream when the partition is
// exhausted, and ctx.Err() promptly after ctx is cancelled — including
// while blocked waiting for data. On error the returned batch is nil
// and dst remains the caller's; a non-empty batch and an error are
// never combined.
type PartitionStream interface {
	NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error)
}

// PartitionIngestStats is one partition's producer-side ingest
// counters, for backpressure observability: Queued is the number of
// batches currently buffered ahead of the engine, BlockedNanos the
// cumulative time producers spent blocked on a full queue (the direct
// measure of backpressure felt), and Batches/Points count what
// producers have successfully enqueued.
//
// The PerSec fields are windowed gauges derived from the cumulative
// counters by the source (ingest.Push samples them on each stats read,
// at most once per its rate window): the ingest rate over the most
// recent window, and BlockedPerSec, the fraction of that window
// producers spent blocked (seconds blocked per second of wall clock —
// ~0 for a keeping-up pipeline, approaching 1 for one saturated by
// backpressure). They are zero until a first window has elapsed, and
// freeze at their last value once producers stop.
type PartitionIngestStats struct {
	Queued        int     `json:"queued"`
	BlockedNanos  int64   `json:"blockedNanos"`
	Batches       int64   `json:"batches"`
	Points        int64   `json:"points"`
	PointsPerSec  float64 `json:"pointsPerSec"`
	BatchesPerSec float64 `json:"batchesPerSec"`
	BlockedPerSec float64 `json:"blockedPerSec"`
	// Retries counts retried read attempts when the partition is
	// wrapped by a RetrySource (zero otherwise): the live measure of
	// how hard the retry layer is working to keep the stream up.
	Retries int64 `json:"retries,omitempty"`
}

// BatchSource is the slab-native form of Source for the sequential
// engine (the pull-loop analog of PartitionStream): Runner loans it a
// recycled Batch to fill, so a steady-state sequential read allocates
// nothing beyond what parsing itself requires. CSVSource implements it
// (parse-in-place), closing the last allocating ingest path.
//
// NextInto appends up to max points to b and returns nil, or
// ErrEndOfStream once the source is exhausted (never both: a call that
// appends at least one point returns nil, and the end is reported by
// the following call). On any other error whatever was appended to b
// is discarded by the caller — the same abort-the-batch semantics as
// Next.
type BatchSource interface {
	Source
	NextInto(b *Batch, max int) error
}

// IngestObservable is implemented by partitioned sources that expose
// per-partition producer-side counters (ingest.Push). IngestStats
// appends one entry per partition to dst and returns it; counters are
// live and may be read concurrently with ingestion.
type IngestObservable interface {
	IngestStats(dst []PartitionIngestStats) []PartitionIngestStats
}

// PartitionedSource produces points pre-split into independent
// partitions — the runtime form of partitioned "fast data" ingest
// (Kafka-style topic partitions, one CSV file per producer, N in-memory
// producers). The sharded engine runs one ingest goroutine per
// partition, each routing its own points to the shard workers, so
// ingestion parallelizes before the first cross-goroutine hop instead
// of serializing through a single pull loop.
//
// Partitions is called once before ingestion starts; the returned
// streams are consumed concurrently, one goroutine each. Partitioning
// carries no ordering contract across partitions — only points within
// one partition stay ordered — so summaries downstream must be
// order-insensitive across partitions (the mergeable-summary property
// the sharded engine already relies on).
type PartitionedSource interface {
	Partitions() []PartitionStream
}

// sourcePartition adapts a legacy pull Source to a single
// PartitionStream by copying each Next batch into the loaned one. The
// copy is what lets the source reuse its buffers on its next Next call
// while the engine still holds the batch. The context is checked
// between Next calls only: a Source whose Next blocks cannot be
// cancelled mid-call, which is exactly the limitation
// StreamRunner.Abandon exists to cut short.
type sourcePartition struct {
	src Source
}

// NextBatchInto implements PartitionStream.
func (p *sourcePartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pts, err := p.src.Next(max)
	if err != nil {
		return nil, err
	}
	dst.AppendPoints(pts)
	return dst, nil
}

// sourceAdapter wraps a Source as a one-partition PartitionedSource.
type sourceAdapter struct {
	part sourcePartition
}

// Partitions implements PartitionedSource.
func (a *sourceAdapter) Partitions() []PartitionStream { return []PartitionStream{&a.part} }

// SourcePartitions adapts a legacy pull Source into a one-partition
// PartitionedSource: each Next batch is delivered as one batch, so
// adapted execution keeps the source's batch boundaries and order, and
// a one-shard run over it is point-for-point identical to the
// sequential Runner.
func SourcePartitions(src Source) PartitionedSource {
	return &sourceAdapter{part: sourcePartition{src: src}}
}
