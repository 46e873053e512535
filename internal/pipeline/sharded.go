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
			MinSupport:   cfg.MinSupport,
			MinRiskRatio: cfg.MinRiskRatio,
			DecayRate:    cfg.DecayRate,
			AMCSize:      cfg.AMCSize,
			MaxItems:     cfg.MaxItems,
			Confidence:   cfg.Confidence,
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
	// The run owns the explainers outright once Run returns and nothing
	// writes to them again, so the in-place fold — which aliases shards
	// 1..P-1's inlier trees rather than copying them — is safe.
	return &ShardedResult{
		Stats:        stats,
		Explanations: explain.MergeStreamingInto(liveExplainers(explainers, stats.ShardFailures)),
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

	// coord is the coordination view shared with the runner's merge
	// closure; pollers read the last global cutoff from it.
	coord *coordState

	// fails records quarantined shards observed by live polls (snapshot
	// rounds answer for a dead shard with its core.ShardFailure marker).
	// It is the only state polls share, and failMu its only lock: every
	// poll merges clones of its own.
	failMu sync.Mutex
	fails  map[int]core.ShardFailure

	// ckParts are the checkpointable views of the session's ingest
	// partitions — nil entries for partitions without offsets, nil slice
	// for legacy-source sessions. Checkpoint Acks through them; they are
	// the same partition objects the runner reads (see stableParts).
	ckParts []core.CheckpointablePartition

	mu    sync.Mutex
	final *ShardedResult
	err   error
}

// shardSnap is what the session's snapshot hook returns per shard: a
// clone of the shard's explainer, and its classifier's threshold read
// on the worker goroutine alongside it, so live polls report a cutoff
// consistent with the shard's own view at snapshot time.
type shardSnap struct {
	clone  *explain.Streaming
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
	s := &StreamSession{done: make(chan struct{})}
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
	// clone is the isolation boundary. The classifier threshold rides
	// along for the live skew breakdown; it is all the hook reads of the
	// classifier, which may be mid-refit (classify.Streaming.SetOffload).
	s.runner.SnapshotShard = func(shard int, pl core.ShardPipeline) any {
		sn := shardSnap{clone: pl.Explainer.(*explain.Streaming).Clone()}
		if tc, ok := pl.Classifier.(classify.ThresholdCoordinable); ok {
			sn.thr, sn.glob, sn.hasThr = tc.Threshold(), tc.ThresholdIsGlobal(), true
		}
		return sn
	}
	go func() {
		defer close(s.done)
		stats, err := s.runner.Run()
		res := &ShardedResult{Stats: stats, Degraded: stats.Degraded}
		res.Shards = newShardBreakdown(finalShardStatuses(stats, classifiers), s.coord, stats.CoordRounds, liveRoutingView(s.runner))
		explainers = liveExplainers(explainers, stats.ShardFailures)
		if err == nil || err == core.ErrStopped {
			// Run has returned, so this goroutine owns the shard
			// explainers, no worker will write to them again, and the
			// in-place fold (inlier trees aliased) is safe.
			res.Explanations = explain.MergeStreamingInto(explainers)
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
// ingest; after termination it returns the final result. Every live
// poll is one full recompute over clones it owns: concurrent polls
// share nothing but the failure map, so none waits on another's merge.
func (s *StreamSession) Poll() (*ShardedResult, error) {
	for !s.Done() {
		snaps, err := s.runner.Snapshot()
		if err == nil {
			return s.livePoll(snaps), nil
		}
		if err != core.ErrNotStreaming {
			return nil, err
		}
		// ErrNotStreaming means the run either has not reached its
		// steady state yet or just terminated; wait a beat and let the
		// Done check distinguish the two.
		select {
		case <-s.done:
		case <-time.After(200 * time.Microsecond):
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final, s.err
}

// livePoll merges one snapshot round — fresh clones this poll owns
// outright, so the in-place fold may alias their inlier trees — and
// assembles the live ShardedResult. A quarantined shard answers with
// its core.ShardFailure marker instead of a clone.
func (s *StreamSession) livePoll(snaps []any) *ShardedResult {
	live := s.runner.LiveStats()
	perRS := s.runner.LiveShardStats(nil)
	rounds := s.runner.LiveCoordRounds()
	routing := liveRoutingView(s.runner)
	owned := make([]*explain.Streaming, 0, len(snaps))
	var failList []core.ShardFailure
	s.failMu.Lock()
	for i, v := range snaps {
		if f, ok := v.(core.ShardFailure); ok {
			if s.fails == nil {
				s.fails = make(map[int]core.ShardFailure)
			}
			s.fails[i] = f
			continue
		}
		owned = append(owned, v.(shardSnap).clone)
	}
	for i := range snaps {
		if f, ok := s.fails[i]; ok {
			failList = append(failList, f)
		}
	}
	s.failMu.Unlock()
	exps := explain.MergeStreamingInto(owned)
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
		Shards:       breakdown,
		Degraded:     len(failList) > 0,
	}
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
