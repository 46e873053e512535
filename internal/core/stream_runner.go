package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// ShardPipeline is one shard's operator replicas in a sharded
// streaming execution: its own transformers, classifier, and explainer,
// sharing no state with other shards (shared-nothing execution). The
// engine never synchronizes on operator state; all cross-shard
// reconciliation happens through snapshots.
type ShardPipeline struct {
	Transforms []Transformer
	Classifier Classifier
	Explainer  Explainer
}

// StreamStats is a run's account, as StreamRunner.Stats reads it mid-run
// and as Run returns it. Every field but Ingest and Committed is filled
// by Stats, from counters each written by one goroutine; Run adds those
// two when it returns.
type StreamStats struct {
	// RunStats totals across shards. Points counts what the ingest
	// goroutines partitioned; the remaining fields sum the shard
	// workers'.
	RunStats
	// PerShard holds each shard worker's own statistics: Points is what
	// the worker took in, not counting what a quarantine dropped. Nil
	// before Run starts.
	PerShard []RunStats
	// CoordRounds counts completed cross-shard coordination rounds
	// (zero when no Coordinate hook was configured).
	CoordRounds int
	// CoordPasses counts the round boundaries the coordinator has
	// handled: a threshold round, a rebalance check, or both, counted
	// once the pass is over whether or not it changed anything. A
	// rebalance-only run completes passes and no rounds.
	CoordPasses int
	// RoutingEpoch is the skew-adaptive router's table version (0 when
	// routing is inactive or has not rebalanced). See RebalancePolicy.
	RoutingEpoch int64
	// BucketMoves counts virtual-bucket reassignments across the run.
	BucketMoves int64
	// Ingest holds per-partition producer-side counters (queue depth,
	// cumulative blocked time) when the partitioned source implements
	// IngestObservable; nil otherwise. Filled by Run only.
	Ingest []PartitionIngestStats
	// Degraded reports that at least one shard worker was quarantined
	// after a panic: the run goes on over the surviving shards, and
	// ShardFailures describes what was lost. A degraded result is a
	// partial answer, not a failure — Run still returns a nil error.
	Degraded bool
	// ShardFailures lists the quarantined shards (empty when none).
	ShardFailures []ShardFailure
	// Committed holds each partition's committed offset at run end
	// (-1 for partitions without an offset protocol); nil when no
	// partition is checkpointable. Filled by Run only; see
	// CommittedOffsets.
	Committed []int64
}

// ShardFailure describes one quarantined shard: a worker whose
// pipeline panicked. The worker survives as a drain-and-drop sink —
// batches routed to it are counted in DroppedPoints, acknowledged for
// checkpointing (the points are resolved: they will never be
// consumed), and recycled — so neither ingest backpressure nor
// checkpoint progress ever wedges on a dead shard. Snapshot and
// coordination requests to a quarantined shard are answered with the
// ShardFailure value itself in place of a summary; merge layers skip
// such markers and account the shard's contribution as lost.
type ShardFailure struct {
	Shard         int    `json:"shard"`
	Err           string `json:"error"`
	DroppedPoints int64  `json:"droppedPoints"`
}

// StreamRunner executes a MacroBase pipeline sharded across P
// shared-nothing workers, fed by push-based partitioned ingestion: one
// ingest goroutine per source partition pulls batches, routes the
// points through the routing table (see RebalancePolicy), and hands
// per-shard sub-batches to workers over bounded channels
// (backpressure, not buffering, absorbs bursts). Routing happens inside
// each ingest goroutine, so the bounded per-shard channels are the only
// cross-goroutine hop; with several partitions ingestion parallelizes
// before it ever serializes. Each worker owns its operator replicas and
// its own decay clock, so a shard is exactly the paper's EWS pipeline
// over its partition of the stream; a merge stage (driven by the caller
// through Snapshot) reconciles per-shard summaries into one global
// view.
//
// The runner is a handful of components that each own their state and
// talk through channels: the ingest loops (routing.go), the shard
// workers (worker.go), which serve one kind of request — snapshots and
// coordination collects and applies alike — between batches, and at
// most one coordinator goroutine (coordinator.go), which runs threshold
// rounds and rebalance checks on the one CoordinateEvery cadence.
//
// StreamRunner is the one engine for every streaming query, over
// stored data and live streams alike. With Shards=1 over a
// one-partition source (ingest.CSVSource, SliceSource, FuncSource) it
// is the paper's sequential EWS pipeline: one worker consumes every
// batch in read order, with the read's batch boundaries, and ticks
// decay on its own clock.
//
// Ordering: points within one partition are delivered to shards in
// partition order; across partitions there is no ordering contract
// (the interleaving at a shard is scheduling-dependent). Decayed
// summaries are therefore reproducible run-to-run only for
// one-partition sources; multi-partition runs are reproducible exactly
// when the per-shard summaries are order-insensitive (no decay ticks,
// deterministic classification), and approximately otherwise.
//
// Stop is one mechanism: RequestStop cancels the ingest context, which
// interrupts in-flight NextBatchInto calls (no polling between
// batches); Run waits for every ingest goroutine to exit, and the
// workers drain what is queued and flush. A read that does not watch
// its context delays the stop until it returns, and the batch it then
// delivers is dropped.
//
// The ingest data plane is allocation-free in steady state: every
// partition fills an engine-loaned recycled Batch; with a single shard
// that batch is handed to the worker outright, and with several the
// routing scatters each point's payload into pooled per-shard Batch
// slabs. Workers consume a batch's Point views and return the batch to
// the free list, so downstream stages must copy anything they retain
// past the call that delivered it — the batch under a worker's feet is
// reused for later points once consume returns (see Batch for the full
// ownership contract).
//
// The run's account — points ingested, classified and labeled per
// shard, decay ticks, coordination and routing progress, quarantines —
// is read through Stats, mid-run or after Run returns.
type StreamRunner struct {
	// Partitioned supplies the partitioned ingestion (required).
	Partitioned PartitionedSource
	// Shards is the worker count P (default 1).
	Shards int
	// NewShard builds shard s's operator replicas (required). It is
	// called once per shard before ingestion starts, from the
	// Run goroutine.
	NewShard func(shard int) ShardPipeline
	// BatchSize is the ingest batch size (default 4096).
	BatchSize int
	// Decay is applied per shard on the shard's local clock: a shard
	// ticks after ingesting EveryPoints of its own points (or when
	// its own event time advances EverySeconds), exactly as a
	// standalone EWS pipeline over the shard's substream would.
	Decay DecayPolicy
	// SnapshotShard, when non-nil, enables the Snapshot method: it
	// runs on the worker goroutine between batches and should return
	// an immutable view of the shard's summary state (e.g. a clone of
	// its explainer).
	//
	// A classifier that implements Offloader is also snapshotted while
	// it waits for an offloaded computation: the transforms and the
	// explainer are then exactly as the previous batch left them, but
	// the classifier is part-way through the current one, so the hook
	// may read only what the classifier keeps readable there (for
	// classify.Streaming, the threshold accessors).
	SnapshotShard func(shard int, pl ShardPipeline) any
	// Coordinate, when non-nil, enables periodic cross-shard
	// reconciliation of operator state (e.g. merging per-shard score
	// quantiles into one global classification threshold). See
	// ShardCoordinator for the protocol and its consistency model.
	Coordinate *ShardCoordinator
	// Rebalance, when non-nil, makes the routing table skew-adaptive:
	// hot buckets migrate off overloaded shards mid-run. Without it the
	// table keeps its identity layout, which places every point with
	// attributes where HashPartition does. Ignored when Shards <= 1. See
	// RebalancePolicy for the consistency model.
	Rebalance *RebalancePolicy
	// CoordinateEvery is the coordinator's cadence in ingested points
	// (default 25_000): each time the count crosses a multiple of it,
	// the coordinator runs one pass — a threshold round when Coordinate
	// is set, then a rebalance check when Rebalance is. The coordinator
	// goroutine runs if and only if there is one of the two to do.
	CoordinateEvery int

	// workersMu guards workers, the run's worker set: published only
	// once every worker runs, and cleared before they retire, so a
	// non-nil set is Snapshot's one test for a live run.
	workersMu sync.Mutex
	workers   []*shardWorker
	// acctMu guards the run's account: trackers, the per-partition
	// committed-offset trackers (nil entries for non-checkpointable
	// partitions), and accounts, one shardStats per shard worker. Both
	// are set at the start of Run and deliberately left in place at
	// teardown, so CommittedOffsets and Stats keep answering after the
	// run — a checkpoint or a poll of a finished session is still
	// meaningful.
	acctMu   sync.Mutex
	trackers []*ackTracker
	accounts []*shardStats

	// ctlMu guards the stop control state shared between Run and
	// RequestStop.
	ctlMu        sync.Mutex
	cancelIngest context.CancelFunc
	stopReq      bool

	// The run-wide counters beside the shards' own (see Stats): points
	// ingested, which also paces the coordinator (notePoints),
	// coordination rounds and passes, and bucket moves.
	ingested atomic.Int64
	rounds   atomic.Int64
	passes   atomic.Int64
	moves    atomic.Int64

	// Routing state (nil with one shard). route holds the current
	// routing epoch, swapped whole by the coordinator; bucketLoads
	// [partition][bucket] are the scatter loops' load counters, present
	// only when the run rebalances — single-writer per partition, read
	// racily (and harmlessly) by the coordinator's window diff. rebal
	// carries the normalized policy.
	route       atomic.Pointer[routeTable]
	bucketLoads [][]atomic.Int64
	rebal       rebalConfig

	// coordEvery is CoordinateEvery with its default applied. coordCh
	// wakes the coordinator goroutine when the ingested-point count
	// crosses a coordEvery boundary; nil when the run has no
	// coordinator. Buffered 1: a pass already pending absorbs further
	// signals (passes are periodic, not per-signal). Closing it retires
	// the coordinator, which closes coordDone on its way out.
	coordEvery int64
	coordCh    chan struct{}
	coordDone  chan struct{}
}

// ErrNotStreaming is returned by Snapshot outside a Run.
var ErrNotStreaming = errors.New("core: stream runner is not running")

// RequestStop asks a running stream to halt: the ingest context is
// cancelled, which interrupts NextBatchInto calls already in
// flight, every ingest goroutine exits at its next scheduling point,
// and the workers drain and flush. Run then returns ErrStopped. Safe to
// call at any time, from any goroutine, idempotently; calling it before
// Run stops that Run immediately.
func (r *StreamRunner) RequestStop() {
	r.ctlMu.Lock()
	r.stopReq = true
	if r.cancelIngest != nil {
		r.cancelIngest()
	}
	r.ctlMu.Unlock()
}

// Run executes the sharded pipeline until every partition is exhausted
// or a stop is requested (ErrStopped). It blocks until every worker has
// drained; Snapshot may be called concurrently from other goroutines
// while Run is in flight.
func (r *StreamRunner) Run() (StreamStats, error) {
	if r.Partitioned == nil {
		return StreamStats{}, errors.New("core: StreamRunner requires a PartitionedSource")
	}
	parts := r.Partitioned.Partitions()
	if len(parts) == 0 {
		return StreamStats{}, errors.New("core: PartitionedSource has no partitions")
	}
	if r.NewShard == nil {
		return StreamStats{}, errors.New("core: StreamRunner requires NewShard")
	}
	shards := max(r.Shards, 1)
	r.initRouting(shards, len(parts))
	trackers := newTrackers(parts)
	// One free list serves the whole run: batches circulate
	// ingest -> shard channel -> worker -> pool -> ingest. The bound
	// covers every batch that can be in flight at once (queued per
	// shard, staged per partition, one being read per partition) plus
	// slack, so steady state recycles rather than allocates while a
	// burst cannot pin unbounded slab memory.
	pool := NewBatchPool(shards*(queueDepth+2) + 2*len(parts))
	workers := make([]*shardWorker, shards)
	var drained, exited sync.WaitGroup
	drained.Add(shards)
	exited.Add(shards)
	for s := range workers {
		workers[s] = r.newWorker(s, pool)
		go workers[s].run(&drained, &exited)
	}
	r.openAccount(trackers, workers)
	r.startCoordinator(workers)
	r.workersMu.Lock()
	r.workers = workers
	r.workersMu.Unlock()

	ingestErr := r.ingest(parts, workers, pool, trackers)
	// Every producer has exited — at end of stream, on a source failure,
	// or after a stop cancelled ingest — so no send can follow: the data
	// channels close and the workers drain to end-of-channel.
	for _, w := range workers {
		close(w.data)
	}
	drained.Wait()
	r.stopCoordinator()
	// Drop the worker set — a finished run must not pin P shards'
	// operator replicas for the lifetime of a long-lived session object
	// — and then retire the workers. The wait is load-bearing: a
	// request that reached a worker just before its quit closed is still
	// served on the worker goroutine, and Run must not hand the
	// pipelines to its caller while a hook reads them.
	r.workersMu.Lock()
	r.workers = nil
	r.workersMu.Unlock()
	for _, w := range workers {
		close(w.quit)
	}
	exited.Wait()
	// The final account is read after the workers retire: a shard can
	// still die inside a late snapshot hook, and the failure list must
	// be complete when Run returns.
	stats := r.Stats()
	if obs, ok := r.Partitioned.(IngestObservable); ok {
		stats.Ingest = obs.IngestStats(nil)
	}
	if slices.ContainsFunc(trackers, func(t *ackTracker) bool { return t != nil }) {
		stats.Committed = r.CommittedOffsets(nil)
	}
	r.ctlMu.Lock()
	stopped := r.stopReq
	r.ctlMu.Unlock()
	if ingestErr != nil {
		return stats, ingestErr
	}
	if stopped {
		return stats, ErrStopped
	}
	return stats, nil
}

// CommittedOffsets appends each partition's committed offset — the
// largest offset whose every point has been routed and consumed (or
// resolved by a quarantined shard) — to dst and returns it; entries
// are -1 for partitions without an offset protocol. Safe to call
// concurrently with Run, and still answering after the run finishes
// (the final offsets). Returns nil if Run has not yet initialized its
// partitions this session.
func (r *StreamRunner) CommittedOffsets(dst []int64) []int64 {
	r.acctMu.Lock()
	trackers := r.trackers
	r.acctMu.Unlock()
	if trackers == nil {
		return nil
	}
	for _, t := range trackers {
		if t == nil {
			dst = append(dst, -1)
		} else {
			dst = append(dst, t.get())
		}
	}
	return dst
}

// openAccount starts the run's account before ingestion begins: the
// run-wide counters restart at zero, and the partitions' commit
// trackers and the shards' counters are installed, to stay in place
// after the run.
func (r *StreamRunner) openAccount(trackers []*ackTracker, workers []*shardWorker) {
	r.ingested.Store(0)
	r.rounds.Store(0)
	r.passes.Store(0)
	r.moves.Store(0)
	accounts := make([]*shardStats, len(workers))
	for i, w := range workers {
		accounts[i] = w.exec.stats
	}
	r.acctMu.Lock()
	r.trackers, r.accounts = trackers, accounts
	r.acctMu.Unlock()
}

// Stats reads the run's account: the fields of StreamStats other than
// Ingest and Committed, which Run adds when it returns. Safe to call
// concurrently with Run and after it returns, when it reads the final
// account (the counters outlive the worker set teardown drops). Each
// counter is read atomically on its own, so a mid-run read is not one
// instant across fields. A shard that answered a Snapshot with its
// ShardFailure marker is among ShardFailures in any later read.
func (r *StreamRunner) Stats() StreamStats {
	r.acctMu.Lock()
	accounts := r.accounts
	r.acctMu.Unlock()
	st := StreamStats{
		RunStats:    RunStats{Points: int(r.ingested.Load())},
		CoordRounds: int(r.rounds.Load()),
		CoordPasses: int(r.passes.Load()),
	}
	if rt := r.route.Load(); rt != nil {
		st.RoutingEpoch = rt.epoch
		st.BucketMoves = r.moves.Load()
	}
	if accounts == nil {
		return st
	}
	st.PerShard = make([]RunStats, len(accounts))
	for i, ss := range accounts {
		rs := ss.runStats()
		st.PerShard[i] = rs
		st.OutPoints += rs.OutPoints
		st.Outliers += rs.Outliers
		st.DecayTicks += rs.DecayTicks
		if f, ok := ss.failed(i); ok {
			st.Degraded = true
			st.ShardFailures = append(st.ShardFailures, f)
		}
	}
	return st
}

// Snapshot collects one summary snapshot per shard, taken on each
// worker's goroutine between batches (so a snapshot never observes a
// half-consumed batch). The Snapshot hook must be configured. Returns
// ErrNotStreaming if the run has finished (callers then use the final
// results) or not started.
func (r *StreamRunner) Snapshot() ([]any, error) {
	if r.SnapshotShard == nil {
		return nil, errors.New("core: StreamRunner has no Snapshot hook")
	}
	r.workersMu.Lock()
	workers := r.workers
	r.workersMu.Unlock()
	out := make([]any, len(workers))
	if workers == nil || !fanOut(workers, nil, out) {
		return nil, ErrNotStreaming
	}
	return out, nil
}
