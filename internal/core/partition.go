package core

import "context"

// PartitionStream is one partition of a partitioned source: an
// independent, ordered stream of point batches consumed by exactly one
// ingest goroutine. Its one read takes a context, so a blocked read can
// be cancelled mid-call (which makes a session stop prompt instead of
// "whenever the source next returns"), and is loaned an empty recycled
// Batch, so a steady-state read allocates nothing.
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
// backpressure). They are zero until a first window has elapsed. Once
// producers stop, the gauges keep their last value only until a stats
// read closes a window with no sends in it; from then on they read 0.
type PartitionIngestStats struct {
	Queued        int     `json:"queued"`
	BlockedNanos  int64   `json:"blockedNanos"`
	Batches       int64   `json:"batches"`
	Points        int64   `json:"points"`
	PointsPerSec  float64 `json:"pointsPerSec"`
	BatchesPerSec float64 `json:"batchesPerSec"`
	BlockedPerSec float64 `json:"blockedPerSec"`
}

// IngestObservable is implemented by partitioned sources that expose
// per-partition producer-side counters (ingest.Push). IngestStats
// appends one entry per partition to dst and returns it; counters are
// live and may be read concurrently with ingestion.
type IngestObservable interface {
	IngestStats(dst []PartitionIngestStats) []PartitionIngestStats
}

// PartitionedSource produces points pre-split into independent
// partitions. It is the runtime form of the paper's Ingestor operator
// and of partitioned "fast data" ingest (Kafka-style topic partitions,
// N in-memory producers). Stored data is one partition:
// ingest.CSVSource, SliceSource and FuncSource are each their own
// single stream. The engine runs one ingest goroutine per partition,
// each routing its own points to the shard workers, so ingestion
// parallelizes before the first cross-goroutine hop instead of
// serializing through a single pull loop.
//
// Partitions must return the same streams, in the same order, on every
// call: the engine reads the streams of one call while the checkpoint
// layer acks and seeks those of another. The streams are consumed
// concurrently, one goroutine each. Partitioning carries no ordering
// contract across partitions — only points within one partition stay
// ordered — so summaries downstream must be order-insensitive across
// partitions (the mergeable-summary property the sharded engine
// already relies on).
type PartitionedSource interface {
	Partitions() []PartitionStream
}
