package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// ShardPipeline is one shard's operator replicas in a sharded
// streaming execution: its own classifier and explainer, sharing no
// state with other shards (shared-nothing execution). The engine never
// synchronizes on operator state; all cross-shard reconciliation
// happens through snapshots.
type ShardPipeline struct {
	Classifier Classifier
	Explainer  Explainer
}

// RunStats summarizes one pipeline execution.
type RunStats struct {
	// Points is the number of points ingested from the source. A
	// streaming shard classifies every point it takes in, so its Points
	// are also the points its outlier rate is over.
	Points int
	// Outliers is the number of points labeled Outlier.
	Outliers int
	// DecayTicks counts how many decay rounds were applied.
	DecayTicks int
}

// StreamStats is a run's account, as StreamRunner.Stats reads it: every
// field, mid-run and after Wait alike (Wait returns one more Stats
// read). Each field is read from state one goroutine writes.
type StreamStats struct {
	// RunStats totals across shards. Points counts what the ingest
	// goroutines partitioned; the remaining fields sum the shard
	// workers'.
	RunStats
	// PerShard holds each shard worker's own statistics: Points is what
	// the worker took in, not counting what a quarantine dropped. Nil
	// only before Start.
	PerShard []RunStats
	// CoordRounds counts completed cross-shard coordination rounds
	// (zero when no Coordinate hook was configured).
	CoordRounds int
	// CoordPasses counts the round boundaries the coordinator has
	// handled: a threshold round, a rebalance check, or both, counted
	// once the pass is over whether or not it changed anything. A
	// rebalance-only run completes passes and no rounds.
	CoordPasses int
	// GlobalCutoff is the cutoff the last coordination round merged
	// (ShardCoordinator.Merge), meaningful when HasGlobalCutoff is set:
	// zero, not NaN, until a first round, so StreamStats values compare
	// with ==-based equality.
	GlobalCutoff    float64
	HasGlobalCutoff bool
	// RoutingEpoch is the skew-adaptive router's table version (0 when
	// routing is inactive or has not rebalanced). See Rebalance.
	RoutingEpoch int64
	// BucketMoves counts virtual-bucket reassignments across the run.
	BucketMoves int64
	// Ingest holds per-partition producer-side counters when the
	// partitioned source implements IngestObservable; nil otherwise.
	// Each entry's Queued is the one instantaneous field of StreamStats;
	// the rest are cumulative, so a rate is the change between two reads
	// over the reader's own clock (see PartitionIngestStats).
	Ingest []PartitionIngestStats
	// Degraded reports that at least one shard worker was quarantined
	// after a panic: the run goes on over the surviving shards, and
	// ShardFailures describes what was lost. A degraded result is a
	// partial answer, not a failure — Wait still returns a nil error.
	Degraded bool
	// ShardFailures lists the quarantined shards (empty when none).
	ShardFailures []ShardFailure
	// Committed holds each partition's committed offset — the largest
	// offset whose every point has been routed and consumed (or resolved
	// by a quarantined shard) — and -1 for a partition without an offset
	// protocol; nil when no partition is checkpointable.
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
// points through the routing table (see Rebalance), and hands
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
// A run is two calls. Start sets it up before it returns — the routing
// table, the partitions' commit trackers, the batch pool, every shard's
// operator replicas (NewShard) and worker, the account, the coordinator
// and the stop context — and launches the ingest loops; from then on the
// run is live, and Snapshot and Stats answer for it on their first
// call. There is no started-but-not-yet-running state to wait out. Wait
// drains the run, retires the workers and returns the final account.
// Run is Start then Wait.
//
// Stop is one mechanism: RequestStop cancels the ingest context, which
// interrupts in-flight NextBatchInto calls (no polling between
// batches); Wait waits for every ingest goroutine to exit, and the
// workers drain what is queued. A read that does not watch
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
// shard, decay ticks, coordination and routing progress, the last
// merged cutoff, quarantines, the partitions' ingest counters and
// committed offsets — is read through Stats, mid-run or after Wait
// returns.
type StreamRunner struct {
	// Partitioned supplies the partitioned ingestion (required).
	Partitioned PartitionedSource
	// Shards is the worker count P (default 1).
	Shards int
	// NewShard builds shard s's operator replicas (required). Start
	// calls it once per shard, in shard order, on its caller's
	// goroutine, before any ingestion.
	NewShard func(shard int) ShardPipeline
	// BatchSize is the ingest batch size (default 4096).
	BatchSize int
	// DecayEvery is the decay period in points, applied per shard on
	// the shard's local clock: a shard ticks its Decayable operators
	// after ingesting DecayEvery of its own points, exactly as a
	// standalone EWS pipeline over the shard's substream would. The
	// paper's default is "a decay rate of 0.01 every 100K points" (§6),
	// the rate held by each operator. Zero disables decay.
	DecayEvery int
	// SnapshotShard, when non-nil, enables the Snapshot method: it
	// runs on the worker goroutine between batches and should return
	// an immutable view of the shard's summary state (e.g. a clone of
	// its explainer).
	//
	// A classifier that implements Offloader is also snapshotted while
	// it waits for an offloaded computation: the explainer is then
	// exactly as the previous batch left it, but the classifier is
	// part-way through the current one, so the hook may read only what
	// the classifier keeps readable there (for classify.Streaming, the
	// threshold accessors).
	SnapshotShard func(shard int, pl ShardPipeline) any
	// Coordinate, when non-nil, enables periodic cross-shard
	// reconciliation of operator state (e.g. merging per-shard score
	// quantiles into one global classification threshold). See
	// ShardCoordinator for the protocol and its consistency model.
	Coordinate *ShardCoordinator
	// Rebalance makes the routing table skew-adaptive. Every
	// multi-shard run routes through a routing table: the scatter loop
	// hashes a point to one of V virtual buckets and looks the bucket up
	// in a versioned table ([]int32, bucket -> shard) read through an
	// atomic pointer — zero allocations per point. Without Rebalance the
	// table keeps its identity layout for the whole run, which places
	// every point with attributes where HashPartition does. With it the
	// scatter loop also counts each bucket's load, and on each
	// CoordinateEvery boundary the coordinator reads the counters and,
	// when the healthy-shard load imbalance exceeds 1.5 (the hottest
	// healthy shard's windowed share times the shard count), greedily
	// reassigns the hottest buckets to the coolest healthy shards and
	// publishes a new table under the next routing epoch. Buckets
	// resident on quarantined shards are evacuated unconditionally;
	// quarantined shards are never move targets. Ignored when
	// Shards <= 1: there is nothing to route.
	//
	// The same-attribute-vector-same-shard invariant is preserved (a
	// bucket moves wholesale, and a point's bucket is a pure function
	// of its attributes), but one attribute set's *history* is split
	// across the old and new shard after a move. That is exactly the
	// cross-shard split the shard merge laws already handle: merged
	// sketches sum counts with summed error bounds, and every mined
	// table path recounts support canonically via ItemsetSupport, so
	// polls remain consistent across moves.
	Rebalance bool
	// CoordinateEvery is the coordinator's cadence in ingested points
	// (default 25_000): each time the count crosses a multiple of it,
	// the coordinator runs one pass — a threshold round when Coordinate
	// is set, then a rebalance check when Rebalance is. The coordinator
	// goroutine runs if and only if there is one of the two to do.
	CoordinateEvery int

	// live is the run Start launched and Wait retires. Only those two
	// touch it, in that order.
	live *liveRun
	// workersMu guards workers, the run's worker set: published by Start
	// once every worker runs, and cleared by Wait before they retire, so
	// a non-nil set is Snapshot's one test for a live run.
	workersMu sync.Mutex
	workers   []*shardWorker
	// acctMu guards the run's account: trackers, the per-partition
	// committed-offset trackers (nil entries for non-checkpointable
	// partitions), accounts, one shardStats per shard worker, and
	// ingestObs, the source's producer-side counters (nil when it keeps
	// none). Start sets them, and they are deliberately left in place at
	// teardown, so Stats keeps answering after the run — a checkpoint or
	// a poll of a finished session is still meaningful.
	acctMu    sync.Mutex
	trackers  []*ackTracker
	accounts  []*shardStats
	ingestObs IngestObservable

	// ctlMu guards the stop control state shared between the run and
	// RequestStop.
	ctlMu        sync.Mutex
	cancelIngest context.CancelFunc
	stopReq      bool

	// The run-wide counters beside the shards' own (see Stats): points
	// ingested, which also paces the coordinator (notePoints),
	// coordination rounds and passes, bucket moves, and the last merged
	// cutoff (nil before the first).
	ingested atomic.Int64
	rounds   atomic.Int64
	passes   atomic.Int64
	moves    atomic.Int64
	cutoff   atomic.Pointer[float64]

	// Routing state (nil with one shard). route holds the current
	// routing epoch, swapped whole by the coordinator; bucketLoads
	// [partition][bucket] are the scatter loops' load counters, present
	// only when the run rebalances — single-writer per partition, read
	// racily (and harmlessly) by the coordinator's window diff.
	route       atomic.Pointer[routeTable]
	bucketLoads [][]atomic.Int64

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

// ErrNotStreaming is returned by Snapshot when there is no live run:
// before Start, or once Wait has begun retiring the workers. A run that
// Start launched has no earlier state in which Snapshot returns it, so
// to a caller holding a started run it means only that the run is over.
var ErrNotStreaming = errors.New("core: stream runner is not running")

// RequestStop asks a running stream to halt: the ingest context is
// cancelled, which interrupts NextBatchInto calls already in
// flight, every ingest goroutine exits at its next scheduling point,
// and the workers drain. Wait then returns ErrStopped. Safe to
// call at any time, from any goroutine, idempotently; calling it before
// Start makes the run stop as soon as it starts.
func (r *StreamRunner) RequestStop() {
	r.ctlMu.Lock()
	r.stopReq = true
	if r.cancelIngest != nil {
		r.cancelIngest()
	}
	r.ctlMu.Unlock()
}

// liveRun is one run between Start and Wait: its workers with their
// drain and exit groups, its ingest loops with the first source failure
// they report, and its commit trackers.
type liveRun struct {
	workers         []*shardWorker
	drained, exited sync.WaitGroup
	ingest          sync.WaitGroup
	failOnce        sync.Once
	failure         error
	trackers        []*ackTracker
}

// Run executes the sharded pipeline until every partition is exhausted
// or a stop is requested (ErrStopped): Start, then Wait.
func (r *StreamRunner) Run() (StreamStats, error) {
	if err := r.Start(); err != nil {
		return StreamStats{}, err
	}
	return r.Wait()
}

// Start sets the run up and launches it (see StreamRunner): when it
// returns nil, every shard's worker runs, the account and the commit
// trackers are in place, and the ingest loops are reading. Snapshot may
// then be called from any goroutine while the run is in flight. Every
// Start that returns nil must be followed by exactly one Wait.
func (r *StreamRunner) Start() error {
	if r.Partitioned == nil {
		return errors.New("core: StreamRunner requires a PartitionedSource")
	}
	parts := r.Partitioned.Partitions()
	if len(parts) == 0 {
		return errors.New("core: PartitionedSource has no partitions")
	}
	if r.NewShard == nil {
		return errors.New("core: StreamRunner requires NewShard")
	}
	shards := max(r.Shards, 1)
	r.initRouting(shards, len(parts))
	run := &liveRun{workers: make([]*shardWorker, shards), trackers: newTrackers(parts)}
	// One free list serves the whole run: batches circulate
	// ingest -> shard channel -> worker -> pool -> ingest. The bound
	// covers every batch that can be in flight at once (queued per
	// shard, staged per partition, one being read per partition) plus
	// slack, so steady state recycles rather than allocates while a
	// burst cannot pin unbounded slab memory.
	pool := NewBatchPool(shards*(queueDepth+2) + 2*len(parts))
	run.drained.Add(shards)
	run.exited.Add(shards)
	for s := range run.workers {
		run.workers[s] = r.newWorker(s, pool)
		go run.workers[s].run(&run.drained, &run.exited)
	}
	r.openAccount(run.trackers, run.workers)
	r.startCoordinator(run.workers)
	r.workersMu.Lock()
	r.workers = run.workers
	r.workersMu.Unlock()
	r.live = run
	r.startIngest(run, parts, pool)
	return nil
}

// Wait blocks until the run Start launched has drained — every
// partition exhausted, a source failed, or a stop was requested
// (ErrStopped) — retires its workers and returns the final account: one
// Stats read, taken once they have retired.
func (r *StreamRunner) Wait() (StreamStats, error) {
	run := r.live
	r.live = nil // a finished run must not pin its workers' pipelines
	run.ingest.Wait()
	r.ctlMu.Lock()
	r.cancelIngest() // releases the stop context
	r.cancelIngest = nil
	r.ctlMu.Unlock()
	// Every producer has exited — at end of stream, on a source failure,
	// or after a stop cancelled ingest — so no send can follow: the data
	// channels close and the workers drain to end-of-channel.
	for _, w := range run.workers {
		close(w.data)
	}
	run.drained.Wait()
	r.stopCoordinator()
	// Drop the worker set — a finished run must not pin P shards'
	// operator replicas for the lifetime of a long-lived session object
	// — and then retire the workers. The wait is load-bearing: a
	// request that reached a worker just before its quit closed is still
	// served on the worker goroutine, and Wait must not hand the
	// pipelines to its caller while a hook reads them.
	r.workersMu.Lock()
	r.workers = nil
	r.workersMu.Unlock()
	for _, w := range run.workers {
		close(w.quit)
	}
	run.exited.Wait()
	// The final account is read after the workers retire: a shard can
	// still die inside a late snapshot hook, and the failure list must
	// be complete when Wait returns.
	stats := r.Stats()
	r.ctlMu.Lock()
	stopped := r.stopReq
	r.ctlMu.Unlock()
	if run.failure != nil {
		return stats, run.failure
	}
	if stopped {
		return stats, ErrStopped
	}
	return stats, nil
}

// openAccount starts the run's account before ingestion begins: the
// run-wide counters restart at zero, and the partitions' commit
// trackers, the source's ingest counters and the shards' counters are
// installed, to stay in place after the run.
func (r *StreamRunner) openAccount(trackers []*ackTracker, workers []*shardWorker) {
	r.ingested.Store(0)
	r.rounds.Store(0)
	r.passes.Store(0)
	r.moves.Store(0)
	r.cutoff.Store(nil)
	accounts := make([]*shardStats, len(workers))
	for i, w := range workers {
		accounts[i] = w.stats
	}
	obs, _ := r.Partitioned.(IngestObservable)
	r.acctMu.Lock()
	r.trackers, r.accounts, r.ingestObs = trackers, accounts, obs
	r.acctMu.Unlock()
}

// Stats reads the run's account, every field of StreamStats. Once Start
// has returned it reads a PerShard entry for every shard: mid-run, from
// any goroutine, and after Wait returns, when it reads the final account
// (the counters outlive the worker set teardown drops). Each counter is
// read atomically on its own, so a mid-run read is not one instant
// across fields. A shard that answered a Snapshot with its ShardFailure
// marker is among ShardFailures in any later read. A read changes
// nothing another read sees.
func (r *StreamRunner) Stats() StreamStats {
	r.acctMu.Lock()
	accounts, trackers, obs := r.accounts, r.trackers, r.ingestObs
	r.acctMu.Unlock()
	st := StreamStats{
		RunStats:    RunStats{Points: int(r.ingested.Load())},
		CoordRounds: int(r.rounds.Load()),
		CoordPasses: int(r.passes.Load()),
	}
	if cut := r.cutoff.Load(); cut != nil {
		st.GlobalCutoff, st.HasGlobalCutoff = *cut, true
	}
	if rt := r.route.Load(); rt != nil {
		st.RoutingEpoch = rt.epoch
		st.BucketMoves = r.moves.Load()
	}
	if accounts == nil {
		return st
	}
	if obs != nil {
		st.Ingest = obs.IngestStats()
	}
	if slices.ContainsFunc(trackers, func(t *ackTracker) bool { return t != nil }) {
		st.Committed = make([]int64, len(trackers))
		for i, t := range trackers {
			st.Committed[i] = -1
			if t != nil {
				st.Committed[i] = t.get()
			}
		}
	}
	st.PerShard = make([]RunStats, len(accounts))
	for i, ss := range accounts {
		rs := ss.runStats()
		st.PerShard[i] = rs
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
// half-consumed batch). The Snapshot hook must be configured. From the
// moment Start returns it succeeds until the run is over; then it
// returns ErrNotStreaming, and callers use the final result.
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
