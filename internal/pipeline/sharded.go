package pipeline

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// ShardedResult is a sharded streaming session's answer. A live poll's
// and the final one are assembled the same way from the same kinds of
// input — one Stats read and one view per shard — so a poll of a
// stream whose every point has been consumed equals the final result.
type ShardedResult struct {
	// Stats is the runner's account (core.StreamRunner.Stats; the final
	// result adds Run's Ingest and Committed). Stats.Degraded reports
	// that at least one shard worker died mid-run (a panic inside its
	// operators) and was quarantined: the stream kept running and this
	// result reflects the surviving shards only. Details are in
	// Stats.ShardFailures and the per-shard Error fields under Shards.
	Stats core.StreamStats
	// Explanations is the reconciled global view: per-shard streaming
	// summaries merged under mergeable-summaries semantics and ranked
	// (explain.Rank order). Unlike RunParallel's union of finished
	// explanation lists, the merge happens at the summary level, so
	// support and risk ratios are computed over the combined counts.
	Explanations []core.Explanation
	// Shards is the skew-observability breakdown: per-shard load,
	// outlier, and threshold state plus the hot-shard imbalance metric.
	Shards *ShardBreakdown
}

// ShardStatus is one shard's entry in the skew breakdown.
type ShardStatus struct {
	// Points is the number of points the router sent this shard and it
	// took in (core.StreamStats.PerShard).
	Points int `json:"points"`
	// Outliers is the number of points this shard labeled Outlier.
	Outliers int `json:"outliers"`
	// OutlierRate is Outliers over the points this shard classified
	// (its OutPoints, after transforms).
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
	// Degraded mirrors ShardedResult.Stats.Degraded for JSON consumers
	// of the breakdown alone: true when any PerShard entry carries an
	// Error.
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
// computes the global quantile.
func newCoordState(cfg Config, shards int) *coordState {
	return &coordState{enabled: shards > 1 && !cfg.DisableGlobalThreshold && cfg.CoordinateEvery > 0}
}

// newShardPipeline builds shard s's MDP operator replicas. Shard seeds
// are decorrelated the same way RunParallel decorrelates partitions;
// with a single shard the seed is exactly cfg.Seed. A caller-supplied
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
// keeping uncoordinated runs unshifted keeps each shard bit-exact with
// a sequential pipeline over its substream).
func newShardPipeline(cfg Config, shard, shards int) core.ShardPipeline {
	pl := core.ShardPipeline{
		Transforms: cfg.Transforms,
		Classifier: cfg.Classifier,
		Explainer: explain.NewStreaming(explain.StreamingConfig{
			MinSupport:   cfg.MinSupport,
			MinRiskRatio: cfg.MinRiskRatio,
			DecayRate:    cfg.DecayRate,
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

// newStreamRunner assembles the sharded runner over parts. NewShard runs
// sequentially on the constructing goroutine before workers start, so
// plain slice writes into explainers/classifiers are safe.
//
// When coord is enabled the runner gets a ShardCoordinator that merges
// per-shard score-quantile summaries into one global percentile cutoff
// and pushes it back through classify.SetGlobalThreshold. Custom
// classifiers that do not implement classify.ThresholdCoordinable
// contribute nothing and receive nothing — their rounds merge zero
// summaries and no-op.
func newStreamRunner(parts core.PartitionedSource, cfg Config, shards int, explainers []*explain.Streaming, classifiers []core.Classifier, coord *coordState) *core.StreamRunner {
	r := &core.StreamRunner{
		Partitioned: parts,
		Shards:      shards,
		NewShard: func(shard int) core.ShardPipeline {
			pl := newShardPipeline(cfg, shard, shards)
			explainers[shard] = pl.Explainer.(*explain.Streaming)
			classifiers[shard] = pl.Classifier
			return pl
		},
		BatchSize:       cfg.BatchSize,
		Decay:           core.DecayPolicy{EveryPoints: cfg.DecayEveryPoints},
		CoordinateEvery: cfg.CoordinateEvery,
	}
	if shards > 1 && !cfg.DisableRebalance {
		// Skew-adaptive routing is on by default for multi-shard runs;
		// rebalance checks ride the one coordinator cadence, with or
		// without threshold coordination.
		r.Rebalance = &core.RebalancePolicy{
			Buckets: cfg.RoutingBuckets,
			Above:   cfg.RebalanceAbove,
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

// newShardBreakdown folds per-shard statuses into the breakdown:
// hottest shard, imbalance vs the fair share, the coordination view,
// and the skew-adaptive router's progress as stats reads it.
func newShardBreakdown(per []ShardStatus, coord *coordState, stats core.StreamStats, rebalancing bool) *ShardBreakdown {
	b := &ShardBreakdown{
		PerShard:     per,
		HotShard:     -1,
		Coordinated:  coord != nil && coord.enabled,
		CoordRounds:  stats.CoordRounds,
		GlobalCutoff: math.NaN(),
		Rebalancing:  rebalancing,
		RoutingEpoch: stats.RoutingEpoch,
		BucketMoves:  stats.BucketMoves,
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

// newResult is the one assembler of a ShardedResult, live or final.
// stats is one Stats read, taken after the views, so every shard that
// answered with a quarantine marker is among its ShardFailures; views
// holds one entry per shard. A quarantined shard's explainer is left
// out of the merge and its threshold is not reported: whatever the
// panic interrupted left its state suspect, and the hash router
// concentrates each attribute combination on one shard, so the
// survivors' combinations are unaffected — the dead shard's share of
// the answer is missing, not corrupted, which is what Degraded
// signals. The rest are merged in place, so the caller must own them
// outright: a poll's snapshot clones, or the replicas once Run has
// returned.
func (s *StreamSession) newResult(stats core.StreamStats, views []shardView) *ShardedResult {
	per := make([]ShardStatus, len(stats.PerShard))
	for i, rs := range stats.PerShard {
		per[i] = ShardStatus{Points: rs.Points, Outliers: rs.Outliers, Threshold: views[i].thr, GlobalThreshold: views[i].glob}
		if rs.OutPoints > 0 {
			per[i].OutlierRate = float64(rs.Outliers) / float64(rs.OutPoints)
		}
	}
	for _, f := range stats.ShardFailures {
		per[f.Shard].Error, per[f.Shard].DroppedPoints = f.Err, f.DroppedPoints
		per[f.Shard].Threshold, per[f.Shard].GlobalThreshold = math.NaN(), false
	}
	owned := make([]*explain.Streaming, 0, len(per))
	for i := range per {
		if per[i].Error == "" {
			owned = append(owned, views[i].ex)
		}
	}
	return &ShardedResult{
		Stats:        stats,
		Explanations: explain.MergeStreamingInto(owned),
		Shards:       newShardBreakdown(per, s.coord, stats, s.rebalancing),
	}
}

// RunPartitionedStream executes MDP in exponentially weighted
// streaming mode sharded across P shared-nothing workers and returns
// the final result once every partition reports end of stream (for
// ingest.Push, once every producer is closed). Points are
// hash-partitioned by attribute set, each shard runs its own streaming
// classifier and explainer with a local decay clock, and the final
// merge reconciles per-shard summaries into one ranked explanation
// set. With shards>1 each combination's counts are concentrated on a
// single shard by the hash router, so merged support is exact up to
// the (summed) sketch bounds; classification thresholds are reconciled
// every CoordinateEvery points by the cross-shard coordinator (a
// merged global percentile cutoff), so skewed routing does not drift
// the answer away from the single-pipeline one. Set
// DisableGlobalThreshold for per-shard cutoffs instead — the sharded
// analog of the accuracy trade-off RunParallel exhibits in Figure 11.
// Points within a partition keep their order; across partitions the
// interleaving is scheduling-dependent (see core.StreamRunner).
func RunPartitionedStream(parts core.PartitionedSource, cfg Config, shards int) (*ShardedResult, error) {
	s, err := StartPartitionedStream(parts, cfg, shards)
	if err != nil {
		return nil, err
	}
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	return s.final, nil
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
	// rebalancing records whether skew-adaptive routing is on for the
	// session, decided once at start.
	rebalancing bool

	// ckParts are the checkpointable views of the session's ingest
	// partitions — nil entries for partitions without offsets, such as
	// a CSV file's. Checkpoint Acks through them; they are the same
	// partition objects the runner reads (see core.PartitionedSource).
	ckParts []core.CheckpointablePartition

	mu    sync.Mutex
	final *ShardedResult
	err   error
}

// shardView is one shard's part of a result: its explainer and its
// classifier's threshold, read together. A live poll's view comes from
// the snapshot hook, on the worker goroutine, with a clone of the
// explainer, so the cutoff is consistent with the shard's own view at
// snapshot time; the final result's is read off the replicas once Run
// has returned.
type shardView struct {
	ex   *explain.Streaming
	thr  float64 // NaN for a classifier that exposes no cutoff
	glob bool
}

// viewOf reads one shard's view; the caller must be the goroutine that
// owns the shard's operators (its worker, or any once Run has returned).
func viewOf(ex *explain.Streaming, c core.Classifier) shardView {
	v := shardView{ex: ex, thr: math.NaN()}
	if tc, ok := c.(classify.ThresholdCoordinable); ok {
		v.thr, v.glob = tc.Threshold(), tc.ThresholdIsGlobal()
	}
	return v
}

// StartPartitionedStream launches a sharded streaming session over a
// partitioned push source: one ingest goroutine per partition feeds
// the shard workers directly. The session owns the source's
// partitions until the stream terminates.
func StartPartitionedStream(parts core.PartitionedSource, cfg Config, shards int) (*StreamSession, error) {
	cfg = cfg.withDefaults()
	if err := validateSharded(cfg, shards); err != nil {
		return nil, err
	}
	s := &StreamSession{done: make(chan struct{})}
	s.ckParts = checkpointableViews(parts.Partitions())
	explainers := make([]*explain.Streaming, shards)
	classifiers := make([]core.Classifier, shards)
	s.coord = newCoordState(cfg, shards)
	s.runner = newStreamRunner(parts, cfg, shards, explainers, classifiers, s.coord)
	s.rebalancing = s.runner.Rebalance != nil
	// Poll clones the shard's summary on the worker goroutine: the
	// worker keeps consuming after the snapshot is handed over, so the
	// clone is the isolation boundary. The classifier threshold rides
	// along for the live skew breakdown; it is all the hook reads of the
	// classifier, which may be mid-refit (classify.Streaming.SetOffload).
	s.runner.SnapshotShard = func(shard int, pl core.ShardPipeline) any {
		return viewOf(pl.Explainer.(*explain.Streaming).Clone(), pl.Classifier)
	}
	go func() {
		defer close(s.done)
		stats, err := s.runner.Run()
		// Run has returned, so this goroutine owns the shard replicas, no
		// worker will write to them again, and the in-place fold (inlier
		// trees aliased) is safe.
		views := make([]shardView, shards)
		for i := range views {
			views[i] = viewOf(explainers[i], classifiers[i])
		}
		res := s.newResult(stats, views)
		// Drop the runner's closure references (explainer replicas,
		// source, config) so a session kept around for polling does not
		// pin P shards of summary state. Post-done Poll/Stop only read
		// s.final, and no goroutine reads these particular fields
		// concurrently: Run has returned and Snapshot touches only
		// SnapshotShard (left in place — its closure captures nothing).
		s.runner.NewShard = nil
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
// share nothing, so none waits on another's merge.
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

// livePoll builds the live result from one snapshot round — fresh
// clones this poll owns outright — and the Stats read that follows it.
// A quarantined shard answers with its core.ShardFailure marker instead
// of a view, and leaves its entry zero.
func (s *StreamSession) livePoll(snaps []any) *ShardedResult {
	views := make([]shardView, len(snaps))
	for i, v := range snaps {
		views[i], _ = v.(shardView)
	}
	return s.newResult(s.runner.Stats(), views)
}

// Stop halts ingestion, waits for the workers to drain and flush, and
// returns the final reconciled result. Stop is idempotent. A read in
// flight is interrupted through its context (ingest.Push mid-wait; the
// one-partition sources between reads).
func (s *StreamSession) Stop() (*ShardedResult, error) {
	s.runner.RequestStop()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final, s.err
}
