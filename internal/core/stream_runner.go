package core

import (
	"context"
	"errors"
	"fmt"
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
	// ExtraDecay lists additional components damped on this shard's
	// decay ticks.
	ExtraDecay []Decayable
}

// StreamStats aggregates a sharded run's statistics.
type StreamStats struct {
	// RunStats totals across shards. Points counts what the ingest
	// goroutines partitioned; the remaining fields sum the shard
	// workers'.
	RunStats
	// PerShard holds each shard worker's own statistics.
	PerShard []RunStats
	// CoordRounds counts completed cross-shard coordination rounds
	// (zero when no Coordinate hook was configured).
	CoordRounds int
	// RoutingEpoch is the skew-adaptive router's final table version (0
	// when routing was inactive or never rebalanced), and BucketMoves
	// the cumulative number of virtual buckets reassigned. See
	// RebalancePolicy.
	RoutingEpoch int64
	// BucketMoves counts virtual-bucket reassignments across the run.
	BucketMoves int64
	// Ingest holds per-partition producer-side counters (queue depth,
	// cumulative blocked time) when the partitioned source implements
	// IngestObservable; nil otherwise. Populated when Run returns.
	Ingest []PartitionIngestStats
	// Degraded reports that at least one shard worker was quarantined
	// after a panic: the run completed over the surviving shards, and
	// ShardFailures describes what was lost. A degraded result is a
	// partial answer, not a failure — Run still returns a nil error.
	Degraded bool
	// ShardFailures lists the quarantined shards (empty when none).
	ShardFailures []ShardFailure
	// Committed holds each partition's committed offset at run end
	// (-1 for partitions without an offset protocol); nil when no
	// partition is checkpointable. See CommittedOffsets.
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
// ingest goroutine per source partition pulls batches, hash-partitions
// the points, and hands per-shard sub-batches to workers over bounded
// channels (backpressure, not buffering, absorbs bursts). Routing
// happens inside each ingest goroutine, so the bounded per-shard
// channels are the only cross-goroutine hop; with several partitions
// ingestion parallelizes before it ever serializes. Each worker owns
// its operator replicas and its own decay clock, so a shard is exactly
// the paper's EWS pipeline over its hash partition of the stream; a
// merge stage (driven by the caller through Snapshot) reconciles
// per-shard summaries into one global view.
//
// Exactly one of Partitioned or Source must be set. A legacy Source is
// wrapped by SourcePartitions into a single partition whose one ingest
// goroutine is the old pull loop — same batch boundaries, same
// ordering — so adapted execution is identical to the pre-partitioned
// engine. With Shards=1 and the same operators, a one-partition
// StreamRunner is execution-equivalent to Runner: one worker consumes
// every batch in ingest order with the same decay schedule.
//
// Ordering: points within one partition are delivered to shards in
// partition order; across partitions there is no ordering contract
// (the interleaving at a shard is scheduling-dependent). Decayed
// summaries are therefore reproducible run-to-run only for
// one-partition sources; multi-partition runs are reproducible exactly
// when the per-shard summaries are order-insensitive (no decay ticks,
// deterministic classification), and approximately otherwise.
//
// Stop has two levels. RequestStop cancels the ingest context, which
// interrupts in-flight context-aware NextBatch calls (no polling
// between batches); workers then drain and flush normally. Abandon
// additionally gives up on ingest goroutines stuck inside a
// non-cancellable read (a legacy Source whose Next never returns):
// workers consume what is already queued, flush, and the run completes,
// leaving the stuck goroutine to exit harmlessly whenever its read
// returns, if ever. The legacy polled Stop callback is still honored
// between batches.
//
// The ingest data plane is allocation-free in steady state: routing
// scatters each point's payload into pooled per-shard Batch slabs (a
// deep copy — no slice of a source's memory survives past the
// partition's next read), workers consume a batch's Point views and
// return the batch to the free list, and partitions implementing
// BatchPartition fill engine-loaned recycled batches instead of
// allocating their own (with a single shard such a batch is handed to
// the worker outright, no copy at all). The deep copy is what makes
// the recycling sound: a source may reuse its backing arrays after its
// next NextBatch call, and downstream stages must copy anything they
// retain past the call that delivered it — the batch under a worker's
// feet is reused for later points once consume returns (OnBatch hooks
// included; see Batch for the full ownership contract).
type StreamRunner struct {
	// Source is a legacy pull source, adapted via SourcePartitions.
	Source Source
	// Partitioned, when non-nil, supplies pre-partitioned ingestion
	// and takes precedence over Source.
	Partitioned PartitionedSource
	// Shards is the worker count P (default 1).
	Shards int
	// NewShard builds shard s's operator replicas (required). It is
	// called once per shard before ingestion starts, from the
	// Run goroutine.
	NewShard func(shard int) ShardPipeline
	// Partition routes a point to a shard in [0, shards). The default
	// hashes the point's attributes, so all points sharing an
	// attribute set land on one shard and its summaries see every
	// occurrence (the property shard merges rely on).
	Partition func(p *Point, shards int) int
	// BatchSize is the ingest batch size (default 4096).
	BatchSize int
	// QueueDepth bounds each shard's channel (default 2 batches).
	QueueDepth int
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
	// OnBatch, if non-nil, observes each shard's labeled batches
	// (called on worker goroutines; must be safe for concurrent use).
	OnBatch func(shard int, batch []LabeledPoint)
	// Stop, if non-nil, is polled by each ingest goroutine between
	// batches with the total number of points ingested so far;
	// returning true halts execution with ErrStopped after workers
	// drain. RequestStop is the push-based equivalent and additionally
	// cancels in-flight NextBatch calls.
	Stop func(pointsIngested int) bool
	// Coordinate, when non-nil, enables periodic cross-shard
	// reconciliation of operator state (e.g. merging per-shard score
	// quantiles into one global classification threshold). See
	// ShardCoordinator for the protocol and its consistency model.
	Coordinate *ShardCoordinator
	// Rebalance, when non-nil, enables skew-adaptive routing: points
	// hash to virtual buckets, a coordinator-owned routing table maps
	// buckets to shards, and hot buckets migrate off overloaded shards
	// mid-run. Ignored when Partition is set or Shards <= 1. See
	// RebalancePolicy for the consistency model.
	Rebalance *RebalancePolicy

	workersMu sync.Mutex // guards workers/quit against end-of-run teardown
	workers   []*shardWorker
	quit      chan struct{}
	// trackMu guards trackers, the per-partition committed-offset
	// trackers (nil entries for non-checkpointable partitions). Set at
	// the start of Run and deliberately left in place at teardown so
	// CommittedOffsets keeps answering after the run — a checkpoint of
	// a finished session is still meaningful.
	trackMu  sync.Mutex
	trackers []*ackTracker
	// snapWg tracks the post-drain snapshot servers: Run waits for
	// them after closing quit, so no SnapshotShard call can still be
	// in flight once Run returns — the caller then owns the shard
	// pipelines outright (the final merge mutates them in place).
	snapWg  sync.WaitGroup
	started atomic.Bool

	// ctlMu guards the stop/abandon control state shared between Run
	// and the RequestStop/Abandon methods.
	ctlMu        sync.Mutex
	cancelIngest context.CancelFunc
	stopReq      bool
	abandonCh    chan struct{}
	abandoned    bool

	// live counters, updated per batch, readable mid-run.
	livePoints    atomic.Int64
	liveOutPoints atomic.Int64
	liveOutliers  atomic.Int64
	liveTicks     atomic.Int64
	liveRounds    atomic.Int64
	livePasses    atomic.Int64
	liveMoves     atomic.Int64

	// Skew-adaptive routing state (nil/zero when routing is off for the
	// run). route holds the current routing epoch, swapped whole by the
	// coordinator; bucketLoads[partition][bucket] are the scatter-path
	// load counters — single-writer per partition, read racily (and
	// harmlessly) by the coordinator's window diff. rebal carries the
	// normalized policy; coordEvery is the signal cadence for
	// notePoints, valid whenever coordCh is non-nil (threshold
	// coordination and rebalancing share the one coordinator goroutine).
	route       atomic.Pointer[routeTable]
	bucketLoads [][]atomic.Int64
	rebal       rebalConfig
	coordEvery  int64

	// coordCh wakes the coordinator goroutine when the ingested-point
	// count crosses a Coordinate.Every boundary; nil when coordination
	// is off. Buffered 1: a round already pending absorbs further
	// signals (rounds are periodic, not per-signal). coordFlush tells
	// the coordinator the stream has ended: it runs one final round if
	// a boundary signal is still pending (so a crossing just before
	// end-of-stream is not silently dropped), then closes coordDone and
	// exits — all before Run tears the workers down.
	coordCh    chan struct{}
	coordFlush chan struct{}
	coordDone  chan struct{}
}

// ShardCoordinator periodically reconciles state across the
// shared-nothing shards: every Every ingested points the coordinator
// goroutine collects one summary per shard (Collect runs on the
// shard's worker goroutine between batches, like snapshots), merges
// them off to the side (Merge runs on the coordinator goroutine), and
// pushes the merged value back to every shard (Apply, again on the
// worker goroutines). Rounds are serialized: a round's applies all
// land before the next round's collects begin.
//
// The consistency model is deliberately loose — coordination is
// periodic and asynchronous with ingestion, so a shard applies a
// global value computed from summaries up to one round old, and the
// points a worker consumes while a round is in flight still see the
// previous value. Every bounds that staleness window in ingested
// points. This is the Muppet-style "exchange small summaries between
// workers" pattern: cheap enough to run frequently, eventually
// consistent between rounds.
type ShardCoordinator struct {
	// Every is the number of ingested points between rounds
	// (required; <= 0 disables coordination).
	Every int
	// Collect returns shard's current summary; nil means the shard has
	// nothing to contribute this round.
	Collect func(shard int, pl ShardPipeline) any
	// Merge combines the per-shard summaries (indexed by shard, nil
	// entries included) into the global value. ok=false skips the
	// round's apply phase (e.g. every summary was empty). A
	// quarantined shard's entry is a ShardFailure marker instead of a
	// Collect result; Merge implementations must skip entries that are
	// not their own summary type.
	Merge func(summaries []any) (global any, ok bool)
	// Apply installs the merged value on shard.
	Apply func(shard int, pl ShardPipeline, global any)
}

// snapshotReq is a control-plane request served on a worker goroutine
// between batches: a snapshot (fn nil; answered via SnapshotShard,
// sent on the worker's snap channel) or a coordination collect/apply
// (fn non-nil; answered with fn's result, sent on its ctl channel).
// reply is buffered so workers never block on a slow requester.
type snapshotReq struct {
	fn    func(shard int, pl ShardPipeline) any
	reply chan any
}

type shardWorker struct {
	id    int
	r     *StreamRunner
	pl    ShardPipeline
	data  chan *Batch
	pool  *BatchPool       // consumed batches go back here, not to the GC
	drain chan struct{}    // closed by an abandoning Run: consume what's queued, flush, exit
	snap  chan snapshotReq // snapshots: also served during an offloaded computation
	ctl   chan snapshotReq // coordination: touches the classifier, so between batches only
	done  chan struct{}    // closed when the worker has drained and flushed
	exec  pipeExec         // the shared batch kernel, one replica per shard

	// Per-shard live counters, readable mid-run (LiveShardStats): the
	// load/outlier view that makes hash skew observable while the
	// stream is still running.
	livePoints   atomic.Int64
	liveOutliers atomic.Int64

	// dead is set when a pipeline panic quarantined this shard; failure
	// carries the details. failure is written only on the worker
	// goroutine (recover) and read through failed, so it needs no lock
	// of its own; its DroppedPoints is the dropped counter, which
	// failDrop advances and LiveDroppedPoints reads mid-run.
	dead    atomic.Bool
	failure ShardFailure
	dropped atomic.Int64
}

// consume runs one batch through the pipeline and recycles it. The
// batch's views die here: nothing downstream may retain them. A panic
// anywhere in the pipeline quarantines the shard (see failDrop) rather
// than crashing the run: MacroBase is pitched as always-on, and one
// shard's corrupt state should cost that shard's contribution, not the
// whole resident session.
func (w *shardWorker) consume(b *Batch) {
	if w.dead.Load() {
		w.failDrop(b)
		return
	}
	w.livePoints.Add(int64(b.Len()))
	func() {
		defer w.recover()
		w.exec.consume(b.Points())
	}()
	b.finishAck()
	w.pool.Put(b)
}

// failDrop disposes of a batch routed to a quarantined shard: the
// points are dropped (and counted), but the batch still acknowledges
// its source read and returns to the free list, so ingest backpressure
// and checkpoint progress never wedge on a dead shard.
func (w *shardWorker) failDrop(b *Batch) {
	w.dropped.Add(int64(b.Len()))
	b.finishAck()
	w.pool.Put(b)
}

// failed is the shard's ShardFailure as of now.
func (w *shardWorker) failed() ShardFailure {
	f := w.failure
	f.DroppedPoints = w.dropped.Load()
	return f
}

// recover, deferred around every pipeline entry point on the worker
// goroutine, turns a panic into a quarantine.
func (w *shardWorker) recover() {
	p := recover()
	if p == nil {
		return
	}
	w.failure.Shard = w.id
	w.failure.Err = fmt.Sprintf("panic: %v", p)
	w.dead.Store(true)
}

// serve answers one control-plane request on the worker goroutine.
// Exactly one reply is always sent — a quarantined shard answers with
// its ShardFailure marker — so snapshot collectors and the coordinator
// never block on a dead shard.
func (w *shardWorker) serve(req snapshotReq) {
	if w.dead.Load() {
		req.reply <- w.failed()
		return
	}
	var v any
	func() {
		defer w.recover()
		if req.fn != nil {
			v = req.fn(w.id, w.pl)
		} else {
			v = w.r.SnapshotShard(w.id, w.pl)
		}
	}()
	if w.dead.Load() {
		v = w.failed() // the hook itself panicked: state is suspect
	}
	req.reply <- v
}

// offload is the Offloader function of this shard's classifier: it runs
// work on a helper goroutine and answers snapshot requests on the worker
// goroutine until work returns. A refit is the one place a worker stays
// inside a batch for hundreds of milliseconds; a poll made to wait it
// out pays several times its own cost, and whether a poll meets a refit
// is a matter of timing, so poll latency would differ from run to run.
// Only snapshots are served: they read the explainer, which is between
// batches here, whereas coordination requests read and write the
// classifier and stay queued on ctl until the batch ends. A panic in
// work is re-raised on the worker goroutine, where consume's recover
// quarantines the shard.
func (w *shardWorker) offload(work func()) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		work()
	}()
	for {
		select {
		case p := <-done:
			if p != nil {
				panic(p)
			}
			return
		case req := <-w.snap:
			w.serve(req)
		}
	}
}

// ErrNotStreaming is returned by Snapshot outside a Run.
var ErrNotStreaming = errors.New("core: stream runner is not running")

// RequestStop asks a running stream to halt: the ingest context is
// cancelled, which interrupts context-aware NextBatch calls already in
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

// Abandon is RequestStop for sources that cannot be interrupted: it
// additionally stops waiting for ingest goroutines that are stuck
// inside a blocking read (a legacy Source whose Next never returns).
// Workers consume whatever is already queued, flush, and Run completes;
// the stuck goroutine keeps its read but its result is discarded when
// it eventually returns (it may never — that goroutine is leaked by
// design, which is the price of a Source with no cancellation
// contract). Points a stuck partition delivers after Abandon are
// dropped, not counted. Safe to call at any time, idempotently.
func (r *StreamRunner) Abandon() {
	r.ctlMu.Lock()
	r.stopReq = true
	if r.cancelIngest != nil {
		r.cancelIngest()
	}
	if r.abandonCh != nil && !r.abandoned {
		r.abandoned = true
		close(r.abandonCh)
	}
	r.ctlMu.Unlock()
}

// Run executes the sharded pipeline until every partition is exhausted
// or a stop is requested (ErrStopped). It blocks until every worker has
// drained; Snapshot may be called concurrently from other goroutines
// while Run is in flight.
func (r *StreamRunner) Run() (StreamStats, error) {
	var parts []PartitionStream
	switch {
	case r.Partitioned != nil:
		parts = r.Partitioned.Partitions()
		if len(parts) == 0 {
			return StreamStats{}, errors.New("core: PartitionedSource has no partitions")
		}
	case r.Source != nil:
		parts = SourcePartitions(r.Source).Partitions()
	default:
		return StreamStats{}, errors.New("core: StreamRunner requires a Source or a PartitionedSource")
	}
	if r.NewShard == nil {
		return StreamStats{}, errors.New("core: StreamRunner requires NewShard")
	}
	shards := r.Shards
	if shards <= 0 {
		shards = 1
	}
	batch := r.BatchSize
	if batch <= 0 {
		batch = 4096
	}
	depth := r.QueueDepth
	if depth <= 0 {
		depth = 2
	}
	partition := r.Partition
	if partition == nil {
		partition = HashPartition
	}
	// Skew-adaptive routing replaces the direct hash->shard map with
	// hash->bucket->table->shard. The initial table is the identity
	// layout over a bucket count that is a multiple of the shard count,
	// so until the first rebalance (hash % V) % shards == hash % shards
	// and placement is bit-identical to HashPartition. A custom
	// Partition function or a single shard disables routing outright.
	routing := r.Rebalance != nil && r.Partition == nil && shards > 1
	if routing {
		r.rebal = r.Rebalance.normalize(shards)
		assign := make([]int32, r.rebal.buckets)
		for b := range assign {
			assign[b] = int32(b % shards)
		}
		r.route.Store(&routeTable{assign: assign})
		r.bucketLoads = make([][]atomic.Int64, len(parts))
		for i := range r.bucketLoads {
			r.bucketLoads[i] = make([]atomic.Int64, r.rebal.buckets)
		}
	} else {
		r.route.Store(nil)
		r.bucketLoads = nil
	}

	r.livePoints.Store(0)
	r.liveOutPoints.Store(0)
	r.liveOutliers.Store(0)
	r.liveTicks.Store(0)
	r.liveRounds.Store(0)
	r.livePasses.Store(0)
	r.liveMoves.Store(0)
	// Commit-offset trackers, one per checkpointable partition, seeded
	// at the partition's current offset (nonzero on a resumed source).
	// Installed before ingestion and kept after teardown: a checkpoint
	// taken off a finished run still answers.
	trackers := make([]*ackTracker, len(parts))
	ckparts := make([]CheckpointablePartition, len(parts))
	anyCk := false
	for i, ps := range parts {
		if cp, ok := AsCheckpointable(ps); ok {
			t := &ackTracker{}
			t.committed = cp.Offset()
			trackers[i] = t
			ckparts[i] = cp
			anyCk = true
		}
	}
	r.trackMu.Lock()
	r.trackers = trackers
	r.trackMu.Unlock()
	r.quit = make(chan struct{})
	r.workers = make([]*shardWorker, shards)
	// One free list serves the whole run: batches circulate
	// ingest -> shard channel -> worker -> pool -> ingest. The bound
	// covers every batch that can be in flight at once (queued per
	// shard, staged per partition, one being read per partition) plus
	// slack, so steady state recycles rather than allocates while a
	// burst cannot pin unbounded slab memory.
	pool := NewBatchPool(shards*(depth+2) + 2*len(parts))
	var workerWg sync.WaitGroup
	for s := 0; s < shards; s++ {
		w := &shardWorker{
			id:    s,
			r:     r,
			pl:    r.NewShard(s),
			data:  make(chan *Batch, depth),
			pool:  pool,
			drain: make(chan struct{}),
			snap:  make(chan snapshotReq),
			ctl:   make(chan snapshotReq),
			done:  make(chan struct{}),
		}
		if off, ok := w.pl.Classifier.(Offloader); ok && r.SnapshotShard != nil {
			off.SetOffload(w.offload)
		}
		w.exec = pipeExec{
			transforms: w.pl.Transforms,
			classifier: w.pl.Classifier,
			explainer:  w.pl.Explainer,
			extraDecay: w.pl.ExtraDecay,
			policy:     r.Decay,
			onDispatch: func(outPoints, outliers int) {
				r.liveOutPoints.Add(int64(outPoints))
				r.liveOutliers.Add(int64(outliers))
				w.liveOutliers.Add(int64(outliers))
			},
			onTick: func() { r.liveTicks.Add(1) },
		}
		if r.OnBatch != nil {
			shard := s
			w.exec.onBatch = func(batch []LabeledPoint) { r.OnBatch(shard, batch) }
		}
		w.exec.reset()
		r.workers[s] = w
		workerWg.Add(1)
		r.snapWg.Add(1)
		go w.run(&workerWg)
	}

	// The coordinator rides the same control plane as snapshots (the
	// workers' ctl channels beside their snap channels, served by the
	// same loop) and the same teardown (quit + snapWg), so Run
	// cannot hand the pipelines to its caller while a Collect or Apply
	// is still touching them. Rebalancing shares the goroutine and its
	// boundary signal: with threshold coordination on, rebalance rounds
	// ride Coordinate.Every; rebalance-only runs use the policy's own
	// cadence.
	r.coordCh = nil
	coordOn := r.Coordinate != nil && r.Coordinate.Every > 0
	if coordOn || routing {
		if coordOn {
			r.coordEvery = int64(r.Coordinate.Every)
		} else {
			r.coordEvery = int64(r.rebal.every)
		}
		r.coordCh = make(chan struct{}, 1)
		r.coordFlush = make(chan struct{})
		r.coordDone = make(chan struct{})
		r.snapWg.Add(1)
		go r.coordinate(r.workers, routing)
	}

	// Arm the stop/abandon controls for this run. A RequestStop that
	// raced ahead of Run is honored by cancelling immediately.
	ctx, cancel := context.WithCancel(context.Background())
	r.ctlMu.Lock()
	r.cancelIngest = cancel
	r.abandonCh = make(chan struct{})
	r.abandoned = false
	abandonCh := r.abandonCh
	if r.stopReq {
		cancel()
	}
	r.ctlMu.Unlock()
	defer cancel()
	r.started.Store(true)

	// One ingest goroutine per partition: each pulls its own batches,
	// routes them, and feeds the shard channels directly. The first
	// source error wins and cancels the rest.
	var (
		prodWg    sync.WaitGroup
		errMu     sync.Mutex
		ingestErr error
	)
	workers := r.workers
	for pi, ps := range parts {
		prodWg.Add(1)
		var loads []atomic.Int64
		if routing {
			loads = r.bucketLoads[pi]
		}
		go func(ps PartitionStream, tracker *ackTracker, cp CheckpointablePartition, loads []atomic.Int64) {
			defer prodWg.Done()
			// Producers work against this run's worker slice, never
			// r.workers: after an Abandon, Run tears r.workers down
			// while an abandoned producer may still be routing a batch
			// it had already read, and that late send must hit a valid
			// (if ignored) channel rather than a nil slice.
			if err := r.ingestPartition(ctx, ps, workers, pool, batch, partition, tracker, cp, loads); err != nil {
				errMu.Lock()
				if ingestErr == nil {
					ingestErr = fmt.Errorf("core: source: %w", err)
				}
				errMu.Unlock()
				cancel() // a partition failure stops the whole stream
			}
		}(ps, trackers[pi], ckparts[pi], loads)
	}
	prodDone := make(chan struct{})
	go func() {
		prodWg.Wait()
		close(prodDone)
	}()

	// Wait for ingestion to finish, or for Abandon to give up on it.
	// Clean completion closes the data channels (workers drain to
	// end-of-channel); abandonment must not — an abandoned producer
	// may still attempt a send — so workers are told to drain what is
	// already queued via their drain channels instead.
	abandoned := false
	select {
	case <-prodDone:
		for _, w := range r.workers {
			close(w.data)
		}
	case <-abandonCh:
		abandoned = true
		for _, w := range r.workers {
			close(w.drain)
		}
	}
	workerWg.Wait()

	// Retire the coordinator before reading stats: a boundary crossed
	// shortly before end-of-stream still gets its round (workers keep
	// serving control requests until quit closes below), and no round
	// can then race the CoordRounds read or the teardown.
	if r.coordCh != nil {
		close(r.coordFlush)
		<-r.coordDone
	}

	stats := StreamStats{PerShard: make([]RunStats, shards)}
	stats.Points = int(r.livePoints.Load())
	stats.CoordRounds = int(r.liveRounds.Load())
	if rt := r.route.Load(); rt != nil {
		stats.RoutingEpoch = rt.epoch
		stats.BucketMoves = r.liveMoves.Load()
	}
	for s, w := range r.workers {
		stats.PerShard[s] = w.exec.stats
		stats.OutPoints += w.exec.stats.OutPoints
		stats.Outliers += w.exec.stats.Outliers
		stats.DecayTicks += w.exec.stats.DecayTicks
	}
	if obs, ok := r.Partitioned.(IngestObservable); ok {
		stats.Ingest = obs.IngestStats(nil)
	}
	// Release any snapshot servers, mark not running, then drop the
	// worker set: a finished run must not pin P shards' operator
	// replicas (reservoirs, sketches, trees) for the lifetime of a
	// long-lived session object. workersMu orders the drop against
	// concurrent Snapshot reads. The snapWg wait is load-bearing: a
	// snapshot request that raced into a worker just before quit
	// closed is still served on the worker goroutine, and Run must not
	// hand the pipelines to its caller while such a SnapshotShard call
	// reads them.
	r.started.Store(false)
	close(r.quit)
	r.snapWg.Wait()
	// Quarantine accounting happens after the snapshot servers retire:
	// a shard can still die inside a late snapshot hook, and the
	// failure list must be complete when Run returns.
	for _, w := range r.workers {
		if w.dead.Load() {
			stats.Degraded = true
			stats.ShardFailures = append(stats.ShardFailures, w.failed())
		}
	}
	if anyCk {
		stats.Committed = r.CommittedOffsets(nil)
	}
	r.workersMu.Lock()
	r.workers = nil
	r.workersMu.Unlock()
	r.ctlMu.Lock()
	stopped := r.stopReq
	r.cancelIngest = nil
	r.ctlMu.Unlock()
	// Under abandonment a stuck producer may still be alive and could
	// yet record an error; errMu makes this read well-defined (a loss
	// to that race reports ErrStopped, which is what abandoning means).
	errMu.Lock()
	err := ingestErr
	errMu.Unlock()
	if err != nil {
		return stats, err
	}
	if stopped || abandoned {
		return stats, ErrStopped
	}
	return stats, nil
}

// ingestPartition is one partition's ingest loop: poll the legacy Stop
// callback, pull a batch (cancellable mid-call for context-aware
// streams, into an engine-loaned recycled Batch for slab-native ones),
// scatter each point's payload into pooled per-shard batches, and hand
// those over the bounded channels. Every batch it touches comes from
// and returns to the run's free list, so the steady-state loop never
// allocates. Returns a non-nil error only for genuine source failures;
// cancellation and end-of-stream return nil.
//
// When the partition is checkpointable (tracker/cp non-nil), each
// read is registered with the commit tracker before its sub-batches
// are sent — registration-before-send is what makes a sub-batch's
// finishAck unable to race past its own begin — and each sub-batch is
// tagged so the workers' finishAck calls advance the committed offset.
// A read abandoned mid-send (cancellation) leaves its tracker entry
// permanently outstanding, which is correct: the committed offset must
// not move past points that were never consumed.
func (r *StreamRunner) ingestPartition(ctx context.Context, ps PartitionStream, workers []*shardWorker, pool *BatchPool, batch int, partition func(*Point, int) int, tracker *ackTracker, cp CheckpointablePartition, loads []atomic.Int64) error {
	shards := len(workers)
	// rr spreads attribute-less points round-robin across buckets (they
	// carry no itemsets, so placement is free — pinning them to one
	// shard, as HashPartition does, turns a metrics-only stream into a
	// guaranteed hot spot). Local to the goroutine: no contention, and
	// cross-partition collisions don't matter for spreading.
	var rr uint32
	bp, native := ps.(BatchPartition)
	var ib *Batch // the read batch for slab-native partitions
	if native {
		ib = pool.Get()
	}
	// staging[s] is the in-progress batch for shard s; entries are nil
	// once handed to a worker and re-loaned on demand. On any exit the
	// deferred sweep returns unsent loans to the pool (a late-arriving
	// Abandon makes the Put a harmless no-op on a full or orphaned
	// pool).
	staging := make([]*Batch, shards)
	defer func() {
		pool.Put(ib)
		for _, sb := range staging {
			pool.Put(sb)
		}
	}()
	for {
		if ctx.Err() != nil {
			return nil
		}
		if r.Stop != nil && r.Stop(int(r.livePoints.Load())) {
			r.RequestStop()
			return nil
		}
		var (
			pts []Point
			err error
		)
		if native {
			ib.Reset()
			var nb *Batch
			nb, err = bp.NextBatchInto(ctx, ib, batch)
			if err == nil {
				ib = nb // ours now, whether filled-in-place or swapped
				if shards == 1 {
					// Single shard: the worker takes ownership of the
					// whole recycled batch — routing degenerates to a
					// pointer handoff, no copy at all.
					r.notePoints(int64(ib.Len()))
					if tracker != nil {
						off := cp.Offset()
						tracker.begin(off, 1)
						ib.ackT, ib.ackOff = tracker, off
					}
					if !send(ctx, workers[0], ib) {
						return nil // cancelled: defer recycles the undelivered ib
					}
					ib = pool.Get()
					continue
				}
				pts = ib.Points()
			}
		} else {
			pts, err = ps.NextBatch(ctx, batch)
		}
		if err == ErrEndOfStream {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil // cancelled mid-read: a stop, not a failure
			}
			return err
		}
		if ctx.Err() != nil {
			return nil // cancelled while a non-cancellable read was in flight
		}
		r.notePoints(int64(len(pts)))
		// Scatter: one pass, appending each point's payload into its
		// shard's staged slab. The copy severs every reference to the
		// source's memory, which is what lets the source (and ib)
		// recycle their buffers next round.
		//
		// With routing active the shard comes from the bucket table
		// instead of the direct hash — one modulo, one counter add, one
		// array index more than the pinned path, still zero
		// allocations. The table is loaded once per read: a rebalance
		// published mid-batch takes effect on the next read, which only
		// defers the move by one batch.
		var rt *routeTable
		if loads != nil {
			rt = r.route.Load()
		}
		for i := range pts {
			s := 0
			if rt != nil {
				nb := uint32(len(rt.assign))
				var b uint32
				if len(pts[i].Attrs) == 0 {
					b = rr % nb
					rr++
				} else {
					b = hashAttrs(pts[i].Attrs) % nb
				}
				loads[b].Add(1)
				s = int(rt.assign[b])
			} else if shards > 1 {
				s = partition(&pts[i], shards)
			}
			sb := staging[s]
			if sb == nil {
				sb = pool.Get()
				staging[s] = sb
			}
			sb.AppendPoint(&pts[i])
		}
		if tracker != nil {
			// Register the read and tag its sub-batches before any send:
			// once a worker holds a tagged batch it may finishAck at any
			// moment, and the begin must already be on the books. After
			// the flush below every staging slot is nil again, so the
			// staged non-empty batches are exactly this read's fan-out.
			off := cp.Offset()
			k := 0
			for _, sb := range staging {
				if sb != nil && sb.Len() > 0 {
					k++
				}
			}
			if k > 0 {
				tracker.begin(off, k)
				for _, sb := range staging {
					if sb != nil && sb.Len() > 0 {
						sb.ackT, sb.ackOff = tracker, off
					}
				}
			}
		}
		for s, sb := range staging {
			if sb != nil && sb.Len() > 0 {
				if !send(ctx, workers[s], sb) {
					return nil // cancelled: defer recycles the undelivered loans
				}
				staging[s] = nil
			}
		}
	}
}

// CommittedOffsets appends each partition's committed offset — the
// largest offset whose every point has been routed and consumed (or
// resolved by a quarantined shard) — to dst and returns it; entries
// are -1 for partitions without an offset protocol. Safe to call
// concurrently with Run, and still answering after the run finishes
// (the final offsets). Returns nil if Run has not yet initialized its
// partitions this session.
func (r *StreamRunner) CommittedOffsets(dst []int64) []int64 {
	r.trackMu.Lock()
	trackers := r.trackers
	r.trackMu.Unlock()
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

// send delivers one batch to a shard, or reports false if the run was
// cancelled while blocked on the shard's backpressure. Ownership of
// the batch transfers only on a true return.
func send(ctx context.Context, w *shardWorker, b *Batch) bool {
	select {
	case w.data <- b:
		return true
	case <-ctx.Done():
		return false
	}
}

// notePoints advances the live ingested-point counter and signals the
// coordinator when the count crosses a round boundary (coordEvery
// ingested points). The send is non-blocking: a signal already pending
// stands for this one too (rounds are periodic, not queued).
func (r *StreamRunner) notePoints(n int64) {
	nv := r.livePoints.Add(n)
	if r.coordCh == nil {
		return
	}
	every := r.coordEvery
	if nv/every != (nv-n)/every {
		select {
		case r.coordCh <- struct{}{}:
		default:
		}
	}
}

// coordinate is the coordinator goroutine: on each boundary signal it
// runs one round — collect a summary from every shard (on the shards'
// worker goroutines, between batches), merge on this goroutine, and
// apply the merged value back to every shard — followed, when routing
// is active, by a rebalance check over the bucket load counters. It
// exits when Run closes quit; a round in flight at that point is
// abandoned safely (reply channels are buffered, and a request a
// worker has accepted is always answered before the worker exits).
func (r *StreamRunner) coordinate(workers []*shardWorker, routing bool) {
	defer r.snapWg.Done()
	defer close(r.coordDone)
	reqs := make([]snapshotReq, len(workers))
	sums := make([]any, len(workers))
	var rb *rebalState
	if routing {
		rb = newRebalState(r.rebal.buckets, len(workers))
	}
	round := func() bool {
		if r.Coordinate != nil {
			if !r.coordRound(workers, reqs, sums) {
				return false
			}
		}
		if routing {
			r.maybeRebalance(workers, rb)
		}
		return true
	}
	for {
		select {
		case <-r.coordCh:
		case <-r.coordFlush:
			// End-of-stream: run the round for a boundary crossed just
			// before the last point, then retire. The workers are still
			// serving control requests — Run waits on coordDone before
			// closing quit — so this final round cannot wedge. The
			// rebalance check is skipped: there is no more load to
			// route, and a table swap here would only churn the epoch.
			select {
			case <-r.coordCh:
				if r.Coordinate != nil {
					r.coordRound(workers, reqs, sums)
				}
			default:
			}
			return
		case <-r.quit:
			return
		}
		if !round() {
			return
		}
		r.livePasses.Add(1)
	}
}

// coordRound runs one collect/merge/apply round; false means the run
// shut down mid-round (the round is abandoned safely: reply channels
// are buffered, and a request a worker has accepted is always answered
// before the worker exits).
func (r *StreamRunner) coordRound(workers []*shardWorker, reqs []snapshotReq, sums []any) bool {
	c := r.Coordinate
	// Collect phase: fan out, then gather. Once a send has been
	// accepted the reply is guaranteed, so only the sends select on
	// quit.
	for i, w := range workers {
		reqs[i] = snapshotReq{fn: c.Collect, reply: make(chan any, 1)}
		select {
		case w.ctl <- reqs[i]:
		case <-r.quit:
			return false
		}
	}
	for i := range reqs {
		sums[i] = <-reqs[i].reply
	}
	global, ok := c.Merge(sums)
	if !ok {
		return true
	}
	// Apply phase: same fan-out/gather shape; gathering before the
	// next round is what serializes rounds.
	apply := func(shard int, pl ShardPipeline) any {
		c.Apply(shard, pl, global)
		return nil
	}
	for i, w := range workers {
		reqs[i] = snapshotReq{fn: apply, reply: make(chan any, 1)}
		select {
		case w.ctl <- reqs[i]:
		case <-r.quit:
			return false
		}
	}
	for i := range reqs {
		<-reqs[i].reply
	}
	r.liveRounds.Add(1)
	return true
}

// LiveStats reports approximate run-in-progress totals. Safe to call
// concurrently with Run; each field is individually consistent.
func (r *StreamRunner) LiveStats() RunStats {
	return RunStats{
		Points:     int(r.livePoints.Load()),
		OutPoints:  int(r.liveOutPoints.Load()),
		Outliers:   int(r.liveOutliers.Load()),
		DecayTicks: int(r.liveTicks.Load()),
	}
}

// LiveCoordRounds reports the number of completed coordination rounds
// so far. Safe to call concurrently with Run.
func (r *StreamRunner) LiveCoordRounds() int {
	return int(r.liveRounds.Load())
}

// LiveCoordPasses reports how many round boundaries the coordinator has
// handled so far: a threshold round, a rebalance check, or both, counted
// once the pass is over whether or not it changed anything. A
// rebalance-only run completes passes and no rounds. Safe to call
// concurrently with Run.
func (r *StreamRunner) LiveCoordPasses() int {
	return int(r.livePasses.Load())
}

// LiveDroppedPoints reports how many points quarantined shards have
// drained and dropped so far; with LiveShardStats' Points it accounts
// for every point the workers have taken. Safe to call concurrently
// with Run; after the run has torn down it reports 0 (the final
// StreamStats.ShardFailures carry the counts).
func (r *StreamRunner) LiveDroppedPoints() int {
	r.workersMu.Lock()
	defer r.workersMu.Unlock()
	n := int64(0)
	for _, w := range r.workers {
		n += w.dropped.Load()
	}
	return int(n)
}

// LiveShardStats appends one approximate per-shard entry (points
// routed, outliers labeled) per worker and returns dst — the live
// skew view behind the serving layer's "shards" block. Safe to call
// concurrently with Run; after the run has torn down it appends
// nothing (callers then read StreamStats.PerShard off the final
// result instead).
func (r *StreamRunner) LiveShardStats(dst []RunStats) []RunStats {
	r.workersMu.Lock()
	defer r.workersMu.Unlock()
	for _, w := range r.workers {
		dst = append(dst, RunStats{
			Points:   int(w.livePoints.Load()),
			Outliers: int(w.liveOutliers.Load()),
		})
	}
	return dst
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
	if !r.started.Load() {
		return nil, ErrNotStreaming
	}
	r.workersMu.Lock()
	workers := r.workers
	quit := r.quit
	r.workersMu.Unlock()
	if workers == nil {
		return nil, ErrNotStreaming
	}
	// Fan the requests out before collecting any reply, so the poll
	// pays the slowest shard's snapshot cost rather than the sum and
	// the per-shard snapshots are taken at (nearly) the same stream
	// time. Reply channels are buffered, so workers never block on a
	// collector that is still waiting on an earlier shard.
	reqs := make([]snapshotReq, len(workers))
	for i, w := range workers {
		reqs[i] = snapshotReq{reply: make(chan any, 1)}
		select {
		case w.snap <- reqs[i]:
		case <-quit:
			return nil, ErrNotStreaming
		}
	}
	out := make([]any, len(workers))
	for i := range reqs {
		out[i] = <-reqs[i].reply
	}
	return out, nil
}

// HashPartition is the default shard router: an FNV-1a hash of the
// point's encoded attributes. Points with identical attribute vectors
// always land on the same shard, so a full attribute set's occurrences
// concentrate there; sub-combinations of multi-attribute points still
// span shards, and their merged counts are exact only up to the summed
// sketch error bounds. Points without attributes land on shard 0 (the
// skew-adaptive router instead spreads them round-robin — they carry
// no itemsets, so their placement never affects explanations).
func HashPartition(p *Point, shards int) int {
	if len(p.Attrs) == 0 {
		return 0
	}
	return int(hashAttrs(p.Attrs) % uint32(shards))
}

// run is the worker loop: consume sub-batches, serve snapshot
// requests between them, flush on drain, then keep serving snapshots
// until the runner shuts down. The loop ends either at channel close
// (clean completion: every producer finished) or at a drain signal
// (abandonment: consume only what is already queued — the channel is
// deliberately left open because an abandoned producer may still
// attempt a send).
func (w *shardWorker) run(wg *sync.WaitGroup) {
	finish := func() {
		// Flush at drain even when stopped: for a resident
		// streaming session, stop is the normal termination
		// and residual windows are still worth explaining.
		// A quarantined shard skips the flush (its state is
		// suspect), and a flush panic quarantines like any other.
		if !w.dead.Load() {
			func() {
				defer w.recover()
				w.exec.flush()
			}()
		}
		close(w.done)
		wg.Done()
		w.serveSnapshots()
	}
	for {
		select {
		case b, ok := <-w.data:
			if !ok {
				finish()
				return
			}
			w.consume(b)
		case <-w.drain:
			for {
				select {
				case b, ok := <-w.data:
					if ok {
						w.consume(b)
						continue
					}
				default:
				}
				finish()
				return
			}
		case req := <-w.snap:
			w.serve(req)
		case req := <-w.ctl:
			w.serve(req)
		}
	}
}

// serveSnapshots answers snapshot requests after drain so a concurrent
// Snapshot never deadlocks against a finished worker; it exits when
// Run closes the quit channel, releasing snapWg so Run knows no hook
// call is still touching this shard's pipeline.
func (w *shardWorker) serveSnapshots() {
	defer w.r.snapWg.Done()
	for {
		select {
		case req := <-w.snap:
			w.serve(req)
		case req := <-w.ctl:
			w.serve(req)
		case <-w.r.quit:
			return
		}
	}
}
