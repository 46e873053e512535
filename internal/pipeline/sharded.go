package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// ShardedResult is the outcome of a sharded streaming execution.
type ShardedResult struct {
	Stats core.StreamStats
	// Explanations is the reconciled global view: per-shard streaming
	// summaries merged under mergeable-summaries semantics and ranked
	// (explain.Rank order). Unlike RunParallel's union of finished
	// explanation lists, the merge happens at the summary level, so
	// support and risk ratios are computed over the combined counts.
	Explanations []core.Explanation
	// Cache reports the session's cumulative explanation-cache counters
	// (full hits, mined-table reuses, full mines, elided snapshot
	// clones) as of this result. Populated for StreamSession polls and
	// final results; a one-shot RunShardedStream merges exactly once
	// and reports that single full mine.
	Cache explain.CacheStats
	// Shards is the skew-observability breakdown: per-shard load,
	// outlier, and threshold state plus the hot-shard imbalance metric.
	// Nil only when a live poll races stream termination (the final
	// result then carries it).
	Shards *ShardBreakdown
	// Degraded reports that at least one shard worker died mid-run (a
	// panic inside its operators) and was quarantined: the stream kept
	// running and this result reflects the surviving shards only.
	// Details are in Stats.ShardFailures and the per-shard Error fields
	// under Shards.
	Degraded bool
}

// ShardStatus is one shard's entry in the skew breakdown.
type ShardStatus struct {
	// Points is the number of points the hash router sent this shard.
	Points int `json:"points"`
	// Outliers is the number of points this shard labeled Outlier.
	Outliers int `json:"outliers"`
	// OutlierRate is Outliers over the points this shard classified.
	OutlierRate float64 `json:"outlierRate"`
	// Threshold is the shard classifier's current score cutoff (NaN
	// for custom classifiers that expose none, +Inf during warmup).
	Threshold float64 `json:"threshold"`
	// GlobalThreshold reports whether the cutoff came from cross-shard
	// coordination rather than the shard's local percentile estimate.
	GlobalThreshold bool `json:"globalThreshold"`
	// Error is the shard's failure message when it was quarantined
	// after a panic (empty for healthy shards).
	Error string `json:"error,omitempty"`
	// DroppedPoints counts points routed to this shard after it died,
	// drained without processing so the stream never wedges.
	DroppedPoints int64 `json:"droppedPoints,omitempty"`
}

// ShardBreakdown surfaces the skew that per-shard thresholds used to
// silently turn into answer drift: who is hot, how hot, and whether the
// global cutoff is in force.
type ShardBreakdown struct {
	PerShard []ShardStatus `json:"perShard"`
	// Imbalance is the hottest shard's load share divided by the fair
	// share 1/P: 1.0 is perfectly balanced, P means one shard took
	// everything. The firehose scenario that motivated coordination
	// shows up here before it shows up as a missing explanation.
	Imbalance float64 `json:"imbalance"`
	// HotShard indexes the most loaded shard (-1 before any load).
	HotShard int `json:"hotShard"`
	// Coordinated reports whether cross-shard threshold coordination
	// is active for this run.
	Coordinated bool `json:"coordinated"`
	// CoordRounds counts completed coordination rounds so far.
	CoordRounds int `json:"coordRounds"`
	// GlobalCutoff is the last merged global threshold (NaN before the
	// first round or with coordination off).
	GlobalCutoff float64 `json:"globalCutoff"`
	// Degraded mirrors ShardedResult.Degraded for JSON consumers of the
	// breakdown alone: true when any PerShard entry carries an Error.
	Degraded bool `json:"degraded"`
	// Rebalancing reports whether skew-adaptive routing is active for
	// this run (multi-shard, no custom partitioner, not disabled).
	Rebalancing bool `json:"rebalancing"`
	// RoutingEpoch is the routing table version: 0 until the first
	// rebalance, +1 per published table. Watching it alongside
	// Imbalance shows the rebalancer converging.
	RoutingEpoch int64 `json:"routingEpoch"`
	// BucketMoves is the cumulative number of virtual buckets migrated
	// between shards.
	BucketMoves int64 `json:"bucketMoves"`
}

// routingView is the router's progress as carried into a breakdown.
type routingView struct {
	active bool
	epoch  int64
	moves  int64
}

// coordState is the session-visible side of threshold coordination:
// whether it is on, and the last merged cutoff (written by the
// coordinator goroutine's Merge, read by pollers).
type coordState struct {
	enabled bool
	cut     atomic.Uint64 // math.Float64bits of the last merged cutoff
	has     atomic.Bool
}

// cutoff returns the last merged global threshold, if any round has
// completed.
func (cs *coordState) cutoff() (float64, bool) {
	if cs == nil || !cs.has.Load() {
		return 0, false
	}
	return math.Float64frombits(cs.cut.Load()), true
}

// newCoordState decides whether coordination runs: it is on by default
// for multi-shard streams (it is the fix for skew-induced answer
// drift) and off for a single shard, whose one pipeline already
// computes the global quantile — keeping P=1 bit-exact with
// RunStreaming.
func newCoordState(cfg Config, shards int) *coordState {
	return &coordState{enabled: shards > 1 && !cfg.DisableGlobalThreshold && cfg.CoordinateEvery > 0}
}

// newShardPipeline builds shard s's MDP operator replicas. Shard seeds
// are decorrelated the same way RunParallel decorrelates partitions;
// with a single shard the seed is exactly cfg.Seed, which keeps
// one-shard execution identical to RunStreaming. A caller-supplied
// Classifier or Transforms (legal only with one shard) is installed
// verbatim; a NewClassifier factory builds one replica per shard.
//
// Coordinated multi-shard runs additionally stagger the default
// classifiers' retrain schedules by shard*(RetrainEvery/shards): a
// retrain drops the shard's coordinated global threshold until the next
// coordination round, and with all P shards retraining in lockstep the
// whole fleet fell back to local cutoffs at once — the skew-drift
// window coordination exists to close. Staggering keeps at most one
// shard inside that window at a time. The stagger is off exactly when
// coordination is off (it exists to protect the global threshold, and
// keeping uncoordinated runs unshifted preserves their bit-exact
// equivalence to RunStreaming per shard).
func newShardPipeline(cfg Config, shard, shards int) core.ShardPipeline {
	pl := core.ShardPipeline{
		Transforms: cfg.Transforms,
		Classifier: cfg.Classifier,
		Explainer: explain.NewStreaming(explain.StreamingConfig{
			MinSupport:      cfg.MinSupport,
			MinRiskRatio:    cfg.MinRiskRatio,
			DecayRate:       cfg.DecayRate,
			AMCSize:         cfg.AMCSize,
			MaxItems:        cfg.MaxItems,
			Confidence:      cfg.Confidence,
			PollParallelism: cfg.PollParallelism,
		}),
	}
	if pl.Classifier == nil && cfg.NewClassifier != nil {
		pl.Classifier = cfg.NewClassifier(shard)
	}
	if pl.Classifier == nil {
		retrainOffset := 0
		if shards > 1 && !cfg.noRetrainStagger && !cfg.DisableGlobalThreshold && cfg.CoordinateEvery > 0 {
			retrainOffset = shard * (cfg.RetrainEvery / shards)
		}
		pl.Classifier = classify.NewStreaming(classify.StreamingConfig{
			Dims:               cfg.Dims,
			ReservoirSize:      cfg.ReservoirSize,
			ScoreReservoirSize: cfg.ReservoirSize,
			DecayRate:          cfg.DecayRate,
			Percentile:         cfg.Percentile,
			RetrainEvery:       cfg.RetrainEvery,
			RetrainOffset:      retrainOffset,
			Seed:               cfg.Seed + uint64(shard)*7919,
		}, cfg.Trainer)
	}
	return pl
}

// validateSharded rejects configurations that cannot be replicated
// per shard: operator instances are stateful, so sharded execution
// needs per-shard replicas, not shared instances.
func validateSharded(cfg Config, shards int) error {
	if shards <= 0 {
		return fmt.Errorf("pipeline: shards must be positive")
	}
	if cfg.Classifier != nil && cfg.NewClassifier != nil {
		return fmt.Errorf("pipeline: Classifier and NewClassifier are mutually exclusive")
	}
	if shards > 1 && cfg.Classifier != nil {
		return fmt.Errorf("pipeline: sharded streaming cannot share one Classifier instance across %d shards; use NewClassifier or leave both nil (MDP builds per-shard replicas)", shards)
	}
	if shards > 1 && len(cfg.Transforms) > 0 {
		return fmt.Errorf("pipeline: sharded streaming cannot share Transform instances across %d shards", shards)
	}
	if shards > 1 && cfg.Trainer != nil {
		// Each shard's classifier retrains on its own worker
		// goroutine, so a shared trainer closure would be invoked
		// concurrently.
		return fmt.Errorf("pipeline: sharded streaming cannot share one Trainer across %d shards", shards)
	}
	return nil
}

// newStreamRunner assembles the sharded runner over either ingest
// shape; exactly one of src/parts is non-nil. NewShard runs
// sequentially on the constructing goroutine before workers start, so
// plain slice writes into explainers/classifiers are safe.
//
// When coord is enabled the runner gets a ShardCoordinator that merges
// per-shard score-quantile summaries into one global percentile cutoff
// and pushes it back through classify.SetGlobalThreshold. Custom
// classifiers that do not implement classify.ThresholdCoordinable
// contribute nothing and receive nothing — their rounds merge zero
// summaries and no-op.
func newStreamRunner(src core.Source, parts core.PartitionedSource, cfg Config, shards int, explainers []*explain.Streaming, classifiers []core.Classifier, coord *coordState) *core.StreamRunner {
	r := &core.StreamRunner{
		Source:      src,
		Partitioned: parts,
		Shards:      shards,
		NewShard: func(shard int) core.ShardPipeline {
			pl := newShardPipeline(cfg, shard, shards)
			explainers[shard] = pl.Explainer.(*explain.Streaming)
			classifiers[shard] = pl.Classifier
			return pl
		},
		BatchSize: cfg.BatchSize,
		Decay:     core.DecayPolicy{EveryPoints: cfg.DecayEveryPoints},
	}
	if shards > 1 && !cfg.DisableRebalance {
		// Skew-adaptive routing is on by default for multi-shard runs;
		// rebalance checks ride the coordinator cadence (and keep that
		// cadence even when threshold coordination is disabled).
		r.Rebalance = &core.RebalancePolicy{
			Buckets: cfg.RoutingBuckets,
			Above:   cfg.RebalanceAbove,
			Every:   cfg.CoordinateEvery,
		}
	}
	if coord != nil && coord.enabled {
		// Round scratch, all owned by the coordinator's serialized
		// rounds: per-shard score buffers (filled on the shard's worker
		// goroutine, read by the merge — rounds never overlap, so no
		// two uses of a buffer do either) and the merger's own scratch.
		bufs := make([][]float64, shards)
		merger := &classify.ScoreSummaryMerger{}
		sums := make([]classify.ScoreSummary, 0, shards)
		r.Coordinate = &core.ShardCoordinator{
			Every: cfg.CoordinateEvery,
			Collect: func(shard int, pl core.ShardPipeline) any {
				tc, ok := pl.Classifier.(classify.ThresholdCoordinable)
				if !ok {
					return nil
				}
				sum := tc.ScoreQuantileSummary(bufs[shard])
				bufs[shard] = sum.Scores // keep the (possibly grown) buffer
				return sum
			},
			Merge: func(raw []any) (any, bool) {
				sums = sums[:0]
				for _, v := range raw {
					if s, ok := v.(classify.ScoreSummary); ok {
						sums = append(sums, s)
					}
				}
				cut, ok := merger.Merge(sums, cfg.Percentile)
				if !ok {
					return nil, false
				}
				coord.cut.Store(math.Float64bits(cut))
				coord.has.Store(true)
				return cut, true
			},
			Apply: func(shard int, pl core.ShardPipeline, global any) {
				if tc, ok := pl.Classifier.(classify.ThresholdCoordinable); ok {
					tc.SetGlobalThreshold(global.(float64))
				}
			},
		}
	}
	return r
}

// finalShardStatuses assembles the post-run skew entries from the
// runner's final per-shard stats and the classifier replicas (owned by
// the caller once Run has returned).
func finalShardStatuses(stats core.StreamStats, classifiers []core.Classifier) []ShardStatus {
	per := make([]ShardStatus, len(stats.PerShard))
	for i, rs := range stats.PerShard {
		st := ShardStatus{Points: rs.Points, Outliers: rs.Outliers, Threshold: math.NaN()}
		if rs.OutPoints > 0 {
			st.OutlierRate = float64(rs.Outliers) / float64(rs.OutPoints)
		}
		if i < len(classifiers) {
			if tc, ok := classifiers[i].(classify.ThresholdCoordinable); ok {
				st.Threshold = tc.Threshold()
				st.GlobalThreshold = tc.ThresholdIsGlobal()
			}
		}
		per[i] = st
	}
	for _, f := range stats.ShardFailures {
		if f.Shard >= 0 && f.Shard < len(per) {
			per[f.Shard].Error = f.Err
			per[f.Shard].DroppedPoints = f.DroppedPoints
			// A dead shard's classifier state is whatever the panic left
			// behind; don't report its threshold as live.
			per[f.Shard].Threshold = math.NaN()
			per[f.Shard].GlobalThreshold = false
		}
	}
	return per
}

// newShardBreakdown folds per-shard statuses into the breakdown:
// hottest shard, imbalance vs the fair share, the coordination view,
// and the skew-adaptive router's progress.
func newShardBreakdown(per []ShardStatus, coord *coordState, rounds int, routing routingView) *ShardBreakdown {
	b := &ShardBreakdown{
		PerShard:     per,
		HotShard:     -1,
		Coordinated:  coord != nil && coord.enabled,
		CoordRounds:  rounds,
		GlobalCutoff: math.NaN(),
		Rebalancing:  routing.active,
		RoutingEpoch: routing.epoch,
		BucketMoves:  routing.moves,
	}
	if cut, ok := coord.cutoff(); ok {
		b.GlobalCutoff = cut
	}
	total := 0
	for _, s := range per {
		if s.Error != "" {
			b.Degraded = true
		}
		total += s.Points
	}
	if total > 0 {
		// Hot-shard election runs over healthy shards only: a
		// quarantined shard's pre-panic load is history, not heat, and
		// reporting a dead shard as "hot" would misdirect whoever is
		// chasing the imbalance. Its points still count toward the
		// shares (they were really routed), and its status stays in
		// PerShard.
		maxShare := 0.0
		for i, s := range per {
			if s.Error != "" {
				continue
			}
			share := float64(s.Points) / float64(total)
			if share > maxShare {
				maxShare, b.HotShard = share, i
			}
		}
		b.Imbalance = maxShare * float64(len(per))
	}
	return b
}

// liveRoutingView reads the skew-adaptive router's progress off the
// runner; valid both mid-run and after Run has returned (the routing
// table outlives the run the way the offset trackers do).
func liveRoutingView(r *core.StreamRunner) routingView {
	epoch, moves, ok := r.LiveRouting()
	return routingView{active: ok, epoch: epoch, moves: moves}
}

// liveExplainers drops quarantined shards' explainers before a merge:
// a shard that died mid-batch left its summary in whatever state the
// panic interrupted, so the reconciled explanation set is computed over
// the surviving shards only (the hash router concentrates each
// attribute combination on one shard, so survivors' combinations are
// unaffected — the dead shard's share of the answer is missing, not
// corrupted, which is what Degraded signals).
func liveExplainers(explainers []*explain.Streaming, failures []core.ShardFailure) []*explain.Streaming {
	if len(failures) == 0 {
		return explainers
	}
	dead := make(map[int]bool, len(failures))
	for _, f := range failures {
		dead[f.Shard] = true
	}
	out := make([]*explain.Streaming, 0, len(explainers))
	for i, ex := range explainers {
		if !dead[i] {
			out = append(out, ex)
		}
	}
	return out
}

// RunShardedStream executes MDP in exponentially weighted streaming
// mode sharded across P shared-nothing workers: points are hash-
// partitioned by attribute set, each shard runs its own streaming
// classifier and explainer with a local decay clock, and the final
// merge reconciles per-shard summaries into one ranked explanation
// set. With shards=1 this is exactly RunStreaming. With shards>1 each
// combination's counts are concentrated on a single shard by the hash
// router, so merged support is exact up to the (summed) sketch bounds;
// classification thresholds are reconciled every CoordinateEvery
// points by the cross-shard coordinator (a merged global percentile
// cutoff), so skewed routing no longer drifts the answer away from the
// single-pipeline one. Set DisableGlobalThreshold to recover the old
// per-shard cutoffs — the sharded analog of the accuracy trade-off
// RunParallel exhibits in Figure 11.
func RunShardedStream(src core.Source, cfg Config, shards int) (*ShardedResult, error) {
	return runSharded(src, nil, cfg, shards)
}

// RunPartitionedStream is RunShardedStream over a partitioned push
// source: one ingest goroutine per partition routes points to the
// shard workers directly, so ingestion parallelizes before the first
// channel hop. It blocks until every partition reports end of stream
// (for ingest.Push, until every producer is closed). Points within a
// partition keep their order; across partitions the interleaving is
// scheduling-dependent (see core.StreamRunner).
func RunPartitionedStream(parts core.PartitionedSource, cfg Config, shards int) (*ShardedResult, error) {
	return runSharded(nil, parts, cfg, shards)
}

func runSharded(src core.Source, parts core.PartitionedSource, cfg Config, shards int) (*ShardedResult, error) {
	cfg = cfg.withDefaults()
	if err := validateSharded(cfg, shards); err != nil {
		return nil, err
	}
	explainers := make([]*explain.Streaming, shards)
	classifiers := make([]core.Classifier, shards)
	coord := newCoordState(cfg, shards)
	r := newStreamRunner(src, parts, cfg, shards, explainers, classifiers, coord)
	stats, err := r.Run()
	if err != nil {
		return nil, err
	}
	// A throwaway merger reports the run's (single) mine in Cache with
	// the same counters a resident session exposes. The run owns the
	// explainers outright once Run returns and nothing writes to them
	// again, so the in-place fold — which aliases shards 1..P-1's inlier
	// trees rather than copying them — is safe.
	merger := explain.NewPollMerger()
	return &ShardedResult{
		Stats:        stats,
		Explanations: merger.Merge(liveExplainers(explainers, stats.ShardFailures)),
		Cache:        merger.Stats(),
		Shards:       newShardBreakdown(finalShardStatuses(stats, classifiers), coord, stats.CoordRounds, liveRoutingView(r)),
		Degraded:     stats.Degraded,
	}, nil
}

// StreamSession is a long-lived sharded streaming query: Start launches
// the engine over an (often unbounded) source, Poll merges per-shard
// summaries into the current global explanation set without pausing
// ingest, and Stop halts the stream and returns the final reconciled
// result. It is the serving-layer form of the paper's streaming MDP —
// the query stays resident and the current attention-worthy
// explanations are always one Poll away.
type StreamSession struct {
	runner *core.StreamRunner
	done   chan struct{}

	// merger carries the incremental poll cache across polls: repeated
	// polls over unchanged shard state are answered from the previous
	// merged result, and inlier-only movement reuses the previous
	// poll's mined itemset table (see explain.PollMerger).
	//
	// Two locks split the poll path so concurrent pollers stop
	// serializing on each other's mines. mineMu serializes the
	// expensive compute — the merger, the retained snapshots it reads
	// during a fold, and retain()'s slot replacement. pollMu guards
	// only cheap bookkeeping: the signature/have hint tables, the
	// failure map, and the session's cumulative cache counters
	// (cstats). A poller that finds mineMu busy does not queue behind
	// the in-flight mine; it takes the bypass path — a hint-less
	// snapshot round merged on its own throwaway clones — trading a
	// full mine for bounded latency. Lock order: mineMu before pollMu,
	// never the reverse.
	//
	// Snapshot elision: the session retains the newest snapshot clone
	// and Signature per shard, sends the signatures as snapshot hints,
	// and a shard whose state is provably unchanged answers with a
	// signature-only marker instead of paying the slab-memcpy clone;
	// the retained snapshot stands in during the merge (MergeShared
	// never mutates its inputs' summary state — it counts inliers on
	// their trees in place — so retained snapshots stay valid across
	// polls; the merged explainer that aliases those trees does not
	// outlive the poll, and retain() replaces snapshots, never edits
	// them).
	mineMu sync.Mutex
	pollMu sync.Mutex
	merger *explain.PollMerger
	cstats explain.CacheStats // cumulative across all serve paths; pollMu
	snaps  []*explain.Streaming
	sigs   []explain.Signature
	have   []bool

	// coord is the coordination view shared with the runner's merge
	// closure; pollers read the last global cutoff from it.
	coord *coordState

	// fails records quarantined shards observed by live polls (snapshot
	// rounds answer for a dead shard with its core.ShardFailure marker).
	// Guarded by pollMu.
	fails map[int]core.ShardFailure

	// ckParts are the checkpointable views of the session's ingest
	// partitions — nil entries for partitions without offsets, nil slice
	// for legacy-source sessions. Checkpoint Acks through them; they are
	// the same partition objects the runner reads (see stableParts).
	ckParts []core.CheckpointablePartition

	mu    sync.Mutex
	final *ShardedResult
	err   error
}

// shardSnap is what the session's snapshot hook returns per shard: the
// shard's current summary signature, plus a fresh clone unless the
// hint proved the caller's retained snapshot still current. The
// threshold fields are read on the worker goroutine alongside the
// signature, so live polls report a cutoff consistent with the shard's
// own view at snapshot time.
type shardSnap struct {
	sig    explain.Signature
	clone  *explain.Streaming // nil: elided, reuse the retained snapshot
	thr    float64
	glob   bool
	hasThr bool
}

// StartShardedStream validates the configuration and launches a
// sharded streaming session over a legacy pull source (adapted to a
// single ingest partition). The session owns src until the stream
// terminates.
func StartShardedStream(src core.Source, cfg Config, shards int) (*StreamSession, error) {
	return startSession(src, nil, cfg, shards)
}

// StartPartitionedStream launches a sharded streaming session over a
// partitioned push source: one ingest goroutine per partition feeds
// the shard workers directly. The session owns the source's
// partitions until the stream terminates.
func StartPartitionedStream(parts core.PartitionedSource, cfg Config, shards int) (*StreamSession, error) {
	return startSession(nil, parts, cfg, shards)
}

func startSession(src core.Source, parts core.PartitionedSource, cfg Config, shards int) (*StreamSession, error) {
	cfg = cfg.withDefaults()
	if err := validateSharded(cfg, shards); err != nil {
		return nil, err
	}
	s := &StreamSession{
		done:   make(chan struct{}),
		merger: explain.NewPollMerger(),
	}
	if parts != nil {
		// Pin the partition list so the session's checkpoint layer Acks
		// and seeks the very stream objects the runner reads.
		sp, ok := parts.(*stableParts)
		if !ok {
			sp = newStableParts(parts)
		}
		parts = sp
		s.ckParts = checkpointableViews(sp.Partitions())
	}
	explainers := make([]*explain.Streaming, shards)
	classifiers := make([]core.Classifier, shards)
	s.coord = newCoordState(cfg, shards)
	s.runner = newStreamRunner(src, parts, cfg, shards, explainers, classifiers, s.coord)
	// Poll clones the shard's summary on the worker goroutine: the
	// worker keeps consuming after the snapshot is handed over, so the
	// clone is the isolation boundary. When the hint (the signature
	// retained from a previous poll) matches the current state, the
	// clone — the poll path's last remaining per-shard memcpy — is
	// skipped entirely. The classifier threshold rides along either
	// way, for the live skew breakdown; it is all the hook reads of the
	// classifier, which may be mid-refit (classify.Streaming.SetOffload).
	s.runner.SnapshotShard = func(shard int, pl core.ShardPipeline, hint any) any {
		ex := pl.Explainer.(*explain.Streaming)
		sn := shardSnap{sig: ex.Signature()}
		if tc, ok := pl.Classifier.(classify.ThresholdCoordinable); ok {
			sn.thr, sn.glob, sn.hasThr = tc.Threshold(), tc.ThresholdIsGlobal(), true
		}
		if h, ok := hint.(explain.Signature); ok && h == sn.sig {
			return sn
		}
		// SnapshotClone (not Clone) so the live tree's changed-path
		// journal is re-anchored at this snapshot: the next snapshot then
		// carries exactly the paths inserted in between, which is what
		// lets the merger delta-update the previous poll's combination
		// table instead of re-mining (see explain.PollMerger).
		sn.clone = ex.SnapshotClone()
		return sn
	}
	go func() {
		defer close(s.done)
		stats, err := s.runner.Run()
		res := &ShardedResult{Stats: stats, Degraded: stats.Degraded}
		res.Shards = newShardBreakdown(finalShardStatuses(stats, classifiers), s.coord, stats.CoordRounds, liveRoutingView(s.runner))
		explainers = liveExplainers(explainers, stats.ShardFailures)
		if err == nil || err == core.ErrStopped {
			// The final reconciliation goes through the same merger as
			// live polls: if nothing moved since the last poll (the
			// common stop shape), the final result is a cache hit, and
			// the counters in Cache stay cumulative across the session's
			// whole lifetime. Run has returned, so this goroutine owns
			// the shard explainers, no worker will write to them again,
			// and the in-place fold (inlier trees aliased) is safe.
			s.mineMu.Lock()
			pre := s.merger.Stats()
			res.Explanations = s.merger.Merge(explainers)
			delta := s.merger.Stats().Sub(pre)
			s.pollMu.Lock()
			s.cstats.Add(delta)
			res.Cache = s.cstats
			// The final result is materialized; the retained snapshots
			// have nothing left to serve.
			s.snaps, s.sigs, s.have = nil, nil, nil
			s.pollMu.Unlock()
			s.mineMu.Unlock()
		}
		// Drop the runner's closure references (explainer replicas,
		// source, config) so a session kept around for polling does not
		// pin P shards of summary state. Post-done Poll/Stop only read
		// s.final, and no goroutine reads these particular fields
		// concurrently: Run has returned and Snapshot touches only
		// SnapshotShard (left in place — its closure captures nothing).
		s.runner.NewShard = nil
		s.runner.Source = nil
		s.runner.Partitioned = nil
		s.mu.Lock()
		s.final = res
		if err != core.ErrStopped {
			s.err = err
		}
		s.mu.Unlock()
	}()
	return s, nil
}

// Done reports whether the stream has terminated (source exhausted,
// stopped, or failed).
func (s *StreamSession) Done() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Poll returns the current reconciled explanation set and live
// statistics. While the stream runs, per-shard summary clones are
// taken on the shard workers between batches — or while a shard's
// classifier refits its model, the one long stall inside a batch (see
// core.Offloader) — and merged off to the side, without pausing
// ingest; after termination it returns the
// final result. Polls are served incrementally: a shard whose epoch
// signature is unchanged since the previous poll skips its snapshot
// clone outright (the retained snapshot stands in), a poll over fully
// unchanged state replays the previous merged result, and inlier-only
// movement reuses the previous poll's mined itemset table (Cache in
// the result reports the cumulative counters).
func (s *StreamSession) Poll() (*ShardedResult, error) {
	for !s.Done() {
		var res *ShardedResult
		var err error
		var outcome pollOutcome
		if s.mineMu.TryLock() {
			res, err, outcome = s.pollLocked()
			s.mineMu.Unlock()
		} else {
			// Another poller's merge+mine is in flight. Don't queue
			// behind it: snapshot without hints and compute on owned
			// throwaway clones. The bypass costs a full mine but keeps
			// concurrent pollers' latency bounded by their own work.
			res, err, outcome = s.pollBypass()
		}
		switch outcome {
		case pollServed:
			return res, err
		case pollRetry:
			continue
		case pollWait:
			// ErrNotStreaming means the run either has not reached its
			// steady state yet or just terminated; wait a beat and let
			// the Done check distinguish the two.
			select {
			case <-s.done:
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final, s.err
}

// pollOutcome tells Poll's retry loop what a poll attempt produced.
type pollOutcome int

const (
	pollServed pollOutcome = iota // return the result (or error)
	pollRetry                     // state moved underfoot; try again
	pollWait                      // not streaming; wait a beat
)

// pollLocked is the incremental poll path; the caller holds mineMu.
// Bookkeeping (hint tables, failure map, counters) runs under pollMu,
// but the merge+mine compute runs with pollMu released — only mineMu
// protects the merger and the retained snapshots it reads.
func (s *StreamSession) pollLocked() (*ShardedResult, error, pollOutcome) {
	var hints []any
	s.pollMu.Lock()
	for i, ok := range s.have {
		if ok {
			if hints == nil {
				hints = make([]any, len(s.have))
			}
			hints[i] = s.sigs[i]
		}
	}
	s.pollMu.Unlock()
	snaps, err := s.runner.Snapshot(hints)
	if err != nil {
		if err != core.ErrNotStreaming {
			return nil, err, pollServed
		}
		return nil, nil, pollWait
	}
	live := s.runner.LiveStats()
	perRS := s.runner.LiveShardStats(nil)
	rounds := s.runner.LiveCoordRounds()
	routing := liveRoutingView(s.runner)
	// Per shard, an elided marker always pairs with the retained
	// snapshot it was hinted from (or a newer, equally consistent
	// one): retain() only ever rolls snapshots forward, and both it
	// and the fold below run under mineMu, so a concurrent poll can
	// never publish a torn (signature-of-A, explanations-of-B) pair.
	s.pollMu.Lock()
	explainers := make([]*explain.Streaming, 0, len(snaps))
	elided := 0
	stale := false
	for i, v := range snaps {
		if f, ok := v.(core.ShardFailure); ok {
			s.noteShardFailure(i, f)
			continue
		}
		sn := v.(shardSnap)
		if sn.clone != nil {
			s.retain(i, sn.sig, sn.clone)
			explainers = append(explainers, sn.clone)
		} else if i < len(s.snaps) && s.have[i] {
			// Elision is only offered when a hint was sent, and
			// hints are only sent for retained shards, so the
			// retained snapshot is normally present.
			elided++
			explainers = append(explainers, s.snaps[i])
		} else {
			// The stream terminated between our snapshot round
			// and this merge, and the final reconciliation
			// dropped the retained snapshots this marker points
			// at. Retry: the Done check serves the final result.
			stale = true
			break
		}
	}
	s.pollMu.Unlock()
	if stale {
		return nil, nil, pollRetry
	}
	// The expensive part, outside pollMu: concurrent pollers touch
	// only the bypass path and bookkeeping while this runs.
	pre := s.merger.Stats()
	exps := s.merger.MergeShared(explainers)
	delta := s.merger.Stats().Sub(pre)
	delta.SnapshotsElided += int64(elided)
	return s.liveResult(snaps, live, perRS, rounds, routing, exps, delta), nil, pollServed
}

// pollBypass is the contended-poll path: a hint-less snapshot round
// merged on its own throwaway clones (whose inlier trees the fold
// aliases, which is why they must be this poll's alone), never touching
// the merger or the retained snapshots. It pays a full mine (the
// clones carry no merged-poll cache) in exchange for not waiting on the
// in-flight one. Counters still land in the session's cumulative
// cstats, so every served poll is accounted exactly once regardless of
// path.
func (s *StreamSession) pollBypass() (*ShardedResult, error, pollOutcome) {
	snaps, err := s.runner.Snapshot(nil)
	if err != nil {
		if err != core.ErrNotStreaming {
			return nil, err, pollServed
		}
		return nil, nil, pollWait
	}
	live := s.runner.LiveStats()
	perRS := s.runner.LiveShardStats(nil)
	rounds := s.runner.LiveCoordRounds()
	routing := liveRoutingView(s.runner)
	owned := make([]*explain.Streaming, 0, len(snaps))
	s.pollMu.Lock()
	for i, v := range snaps {
		if f, ok := v.(core.ShardFailure); ok {
			s.noteShardFailure(i, f)
			continue
		}
		// No hints were sent, so every live shard answered with a
		// fresh clone this poll owns outright.
		owned = append(owned, v.(shardSnap).clone)
	}
	s.pollMu.Unlock()
	exps := explain.MergeStreamingInto(owned)
	var delta explain.CacheStats
	if len(owned) > 0 {
		delta = owned[0].CacheStats()
	}
	return s.liveResult(snaps, live, perRS, rounds, routing, exps, delta), nil, pollServed
}

// noteShardFailure records a quarantined shard observed by a snapshot
// round and drops its retained snapshot: the merged signature count
// changes, so the poll cache takes a full re-mine rather than serving
// a stale hit. Caller holds pollMu.
func (s *StreamSession) noteShardFailure(i int, f core.ShardFailure) {
	if s.fails == nil {
		s.fails = make(map[int]core.ShardFailure)
	}
	s.fails[i] = f
	if i < len(s.have) {
		s.snaps[i], s.have[i] = nil, false
	}
}

// liveResult folds one poll's counter delta into the session's
// cumulative cache stats and assembles the live ShardedResult both
// poll paths return.
func (s *StreamSession) liveResult(snaps []any, live core.RunStats, perRS []core.RunStats, rounds int, routing routingView, exps []core.Explanation, delta explain.CacheStats) *ShardedResult {
	s.pollMu.Lock()
	s.cstats.Add(delta)
	cstats := s.cstats
	var failList []core.ShardFailure
	if len(s.fails) > 0 {
		failList = make([]core.ShardFailure, 0, len(s.fails))
		for i := range snaps {
			if f, ok := s.fails[i]; ok {
				failList = append(failList, f)
			}
		}
	}
	s.pollMu.Unlock()
	// The live skew breakdown pairs worker load counters with
	// the thresholds read at snapshot time. A teardown that
	// raced between the snapshot round and LiveShardStats
	// leaves the counters empty; the final result carries the
	// authoritative breakdown, so this poll just omits it.
	var breakdown *ShardBreakdown
	if len(perRS) == len(snaps) {
		per := make([]ShardStatus, len(snaps))
		for i, v := range snaps {
			st := ShardStatus{Points: perRS[i].Points, Outliers: perRS[i].Outliers, Threshold: math.NaN()}
			if st.Points > 0 {
				st.OutlierRate = float64(st.Outliers) / float64(st.Points)
			}
			if f, ok := v.(core.ShardFailure); ok {
				st.Error, st.DroppedPoints = f.Err, f.DroppedPoints
			} else if sn := v.(shardSnap); sn.hasThr {
				st.Threshold, st.GlobalThreshold = sn.thr, sn.glob
			}
			per[i] = st
		}
		breakdown = newShardBreakdown(per, s.coord, rounds, routing)
	}
	return &ShardedResult{
		Stats: core.StreamStats{
			RunStats:      live,
			CoordRounds:   rounds,
			RoutingEpoch:  routing.epoch,
			BucketMoves:   routing.moves,
			Degraded:      len(failList) > 0,
			ShardFailures: failList,
		},
		Explanations: exps,
		Cache:        cstats,
		Shards:       breakdown,
		Degraded:     len(failList) > 0,
	}
}

// retain records shard i's newest snapshot clone and signature for
// future elision. Caller holds mineMu and pollMu. An incoming snapshot
// only replaces the retained one when it is at least as new — tree
// epochs are monotonic within a shard's lineage — lest a stale round
// roll the retained state backwards and a later elided poll serve
// explanations older than ones already published.
func (s *StreamSession) retain(i int, sig explain.Signature, sn *explain.Streaming) {
	for len(s.snaps) <= i {
		s.snaps = append(s.snaps, nil)
		s.sigs = append(s.sigs, explain.Signature{})
		s.have = append(s.have, false)
	}
	if s.have[i] && (s.sigs[i].OutEpoch > sig.OutEpoch || s.sigs[i].InEpoch > sig.InEpoch) {
		return
	}
	s.snaps[i], s.sigs[i], s.have[i] = sn, sig, true
}

// Stop halts ingestion, waits for the workers to drain and flush, and
// returns the final reconciled result. Stop is idempotent. Ingestion
// is interrupted mid-read for context-aware sources (partitioned
// backends such as ingest.Push and ingest.PartitionedCSV); a legacy
// Source blocked inside Next delays Stop until that call returns — use
// StopContext to bound the wait.
func (s *StreamSession) Stop() (*ShardedResult, error) {
	return s.StopContext(context.Background())
}

// StopContext is Stop with a deadline: it requests the stop, and if
// the stream has not fully drained by the time ctx expires — a
// partition stuck in a read that honors no cancellation, i.e. a legacy
// Source whose Next never returns — it abandons ingestion: workers
// consume what was already queued, flush, and the final reconciled
// result is returned promptly, while the stuck read is left to its
// fate (its goroutine exits silently if it ever returns). The result
// is therefore complete up to abandonment; points a stuck partition
// would have delivered later are not waited for. A context that is
// already expired abandons immediately.
func (s *StreamSession) StopContext(ctx context.Context) (*ShardedResult, error) {
	s.runner.RequestStop()
	select {
	case <-s.done:
	case <-ctx.Done():
		// Deadline passed with ingestion still wedged: give up on the
		// blocked partitions and drain what the workers already have.
		// Abandon bounds the remaining work (queued batches + flush +
		// final merge), so this second wait is short.
		s.runner.Abandon()
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final, s.err
}
