package pipeline

import (
	"fmt"
	"math"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// ShardedResult is a sharded streaming session's answer. A live poll's
// and the final one are assembled the same way from the same kinds of
// input — one Stats read and one view per shard — so a poll of a
// stream whose every point has been consumed equals the final result.
type ShardedResult struct {
	// Stats is the runner's account, one core.StreamRunner.Stats read
	// (the final result's is the one Wait returns). Stats.Degraded reports
	// that at least one shard worker died mid-run (a panic inside its
	// operators) and was quarantined: the stream kept running and this
	// result reflects the surviving shards only. Details are in
	// Stats.ShardFailures and the per-shard Error fields under Shards.
	Stats core.StreamStats
	// Explanations is the reconciled global view: per-shard streaming
	// summaries merged under mergeable-summaries semantics and ranked
	// (explain.Rank order). Unlike a union of finished per-partition
	// explanation lists (Figure 11's shared-nothing scale-out), the
	// merge happens at the summary level, so support and risk ratios
	// are computed over the combined counts.
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
	// OutlierRate is Outliers over Points: a shard classifies every
	// point it takes in.
	OutlierRate float64 `json:"outlierRate"`
	// GlobalThreshold reports whether the cutoff came from cross-shard
	// coordination rather than the shard's local percentile estimate.
	GlobalThreshold bool `json:"globalThreshold"`
	// Error is the shard's failure message when it was quarantined
	// after a panic (empty for healthy shards).
	Error string `json:"error,omitempty"`
	// DroppedPoints counts points routed to this shard after it died,
	// drained without processing so the stream never wedges.
	DroppedPoints int64 `json:"droppedPoints,omitempty"`
	// Threshold is the shard classifier's current score cutoff: +Inf
	// during warmup, NaN for a quarantined shard (and for a test's fake
	// classifier, which exposes none).
	Threshold JSONFloat `json:"threshold"`
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
	// is active for this run (see coordinates).
	Coordinated bool `json:"coordinated"`
	// CoordRounds counts completed coordination rounds so far.
	CoordRounds int `json:"coordRounds"`
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
	// GlobalCutoff is the last merged global threshold
	// (core.StreamStats.GlobalCutoff; NaN before the first round or with
	// coordination off).
	GlobalCutoff JSONFloat `json:"globalCutoff"`
}

// coordinates decides whether threshold coordination runs: it is on by
// default for multi-shard streams (it is the fix for skew-induced
// answer drift) and off for a single shard, whose one pipeline already
// computes the global quantile.
func coordinates(cfg Config, shards int) bool {
	return shards > 1 && !cfg.DisableGlobalThreshold && cfg.CoordinateEvery > 0
}

// newShardPipeline builds shard s's MDP operator replicas: the
// streaming explainer and MDP's streaming classifier, or the
// newClassifier factory's replica when a test installs one. Shard s is
// seeded cfg.Seed + s*7919, so the shards' samplers are decorrelated;
// with a single shard the seed is exactly cfg.Seed.
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
		Explainer: explain.NewStreaming(explain.StreamingConfig{
			MinSupport:   cfg.MinSupport,
			MinRiskRatio: cfg.MinRiskRatio,
			DecayRate:    cfg.DecayRate,
			Confidence:   cfg.Confidence,
		}),
	}
	if cfg.newClassifier != nil {
		pl.Classifier = cfg.newClassifier(shard)
		return pl
	}
	retrainOffset := 0
	if coordinates(cfg, shards) {
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
	}, nil)
	return pl
}

// validateStreaming rejects a shard count a streaming session cannot
// run.
func validateStreaming(shards int) error {
	if shards <= 0 {
		return fmt.Errorf("pipeline: shards must be positive")
	}
	return nil
}

// newStreamRunner assembles the sharded runner over parts. Start runs
// NewShard for every shard, in order, on its caller's goroutine before
// any worker touches a pipeline, so plain slice writes into
// explainers/classifiers are safe.
//
// When the run coordinates, its threshold rounds pool the shards' score
// samples at cfg.Percentile into one global cutoff. Every shard's
// classifier is MDP's own, a core.ThresholdCoordinable; only a test's
// fake classifier is not, and it contributes and receives nothing.
func newStreamRunner(parts core.PartitionedSource, cfg Config, shards int, explainers []*explain.Streaming, classifiers []core.Classifier) *core.StreamRunner {
	r := &core.StreamRunner{
		Partitioned: parts,
		Shards:      shards,
		NewShard: func(shard int) core.ShardPipeline {
			pl := newShardPipeline(cfg, shard, shards)
			explainers[shard] = pl.Explainer.(*explain.Streaming)
			classifiers[shard] = pl.Classifier
			return pl
		},
		BatchSize:  cfg.batchSize,
		DecayEvery: cfg.DecayEveryPoints,
		// Skew-adaptive routing is on by default for multi-shard runs;
		// rebalance checks ride the one coordinator cadence, with or
		// without threshold coordination.
		Rebalance:       shards > 1 && !cfg.DisableRebalance,
		CoordinateEvery: cfg.CoordinateEvery,
	}
	if coordinates(cfg, shards) {
		r.Coordinate = cfg.Percentile
	}
	return r
}

// newShardBreakdown folds per-shard statuses into the breakdown:
// hottest shard and imbalance vs the fair share, plus the coordination
// view and the skew-adaptive router's progress as stats reads them.
func newShardBreakdown(per []ShardStatus, stats core.StreamStats, coordinated, rebalancing bool) *ShardBreakdown {
	b := &ShardBreakdown{
		PerShard:     per,
		HotShard:     -1,
		Coordinated:  coordinated,
		CoordRounds:  stats.CoordRounds,
		GlobalCutoff: JSONFloat(math.NaN()),
		Rebalancing:  rebalancing,
		RoutingEpoch: stats.RoutingEpoch,
		BucketMoves:  stats.BucketMoves,
	}
	if stats.HasGlobalCutoff {
		b.GlobalCutoff = JSONFloat(stats.GlobalCutoff)
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
// was quarantined and left its view zero is among its ShardFailures;
// views holds one entry per shard. A quarantined shard's explainer is left
// out of the merge and its threshold is not reported: whatever the
// panic interrupted left its state suspect, and the hash router
// concentrates each attribute combination on one shard, so the
// survivors' combinations are unaffected — the dead shard's share of
// the answer is missing, not corrupted, which is what Degraded
// signals. The rest are merged in place, so the caller must own them
// outright: a poll's snapshot clones, or the replicas once Wait has
// returned.
func (s *StreamSession) newResult(stats core.StreamStats, views []shardView) *ShardedResult {
	per := make([]ShardStatus, len(stats.PerShard))
	for i, rs := range stats.PerShard {
		per[i] = ShardStatus{Points: rs.Points, Outliers: rs.Outliers, Threshold: JSONFloat(views[i].thr), GlobalThreshold: views[i].glob}
		if rs.Points > 0 {
			per[i].OutlierRate = float64(rs.Outliers) / float64(rs.Points)
		}
	}
	for _, f := range stats.ShardFailures {
		per[f.Shard].Error, per[f.Shard].DroppedPoints = f.Err, f.DroppedPoints
		per[f.Shard].Threshold, per[f.Shard].GlobalThreshold = JSONFloat(math.NaN()), false
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
		Shards:       newShardBreakdown(per, stats, s.runner.Coordinate > 0, s.runner.Rebalance),
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
// analog of the accuracy trade-off that shared-nothing scale-out
// exhibits in Figure 11.
// Points within a partition keep their order; across partitions the
// interleaving is scheduling-dependent (see core.StreamRunner).
func RunPartitionedStream(parts core.PartitionedSource, cfg Config, shards int) (*ShardedResult, error) {
	s, err := StartPartitionedStream(parts, cfg, shards)
	if err != nil {
		return nil, err
	}
	res, err := s.Wait()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// StreamSession is a long-lived sharded streaming query:
// StartPartitionedStream launches the engine over an (often unbounded)
// source and returns once the run is live, Poll merges per-shard
// summaries into the current global explanation set without pausing
// ingest, and Stop halts the stream and returns the final reconciled
// result. It is the serving-layer form of the paper's streaming MDP —
// the query stays resident and the current attention-worthy
// explanations are always one Poll away.
type StreamSession struct {
	runner *core.StreamRunner

	// parts are the session's ingest partitions, the objects the runner
	// reads (see core.PartitionedSource); Checkpoint acks the committed
	// offsets back through them.
	parts []core.PartitionStream

	// done is closed once the goroutine that waits out the run has
	// assembled final and err; neither is written after.
	done  chan struct{}
	final *ShardedResult
	err   error
}

// shardView is one shard's part of a result: its explainer and its
// classifier's threshold, read together. A live poll's view is read by
// its snapshot, on the worker goroutine, with a clone of the explainer,
// so the cutoff is consistent with the shard's own view at snapshot
// time; the final result's is read off the replicas once Wait has
// returned.
type shardView struct {
	ex   *explain.Streaming
	thr  float64 // NaN for a test's fake classifier, which exposes no cutoff
	glob bool
}

// viewOf reads one shard's view; the caller must be the goroutine that
// owns the shard's operators (its worker, or any once Wait has returned).
func viewOf(ex *explain.Streaming, c core.Classifier) shardView {
	v := shardView{ex: ex, thr: math.NaN()}
	if s, ok := c.(*classify.Streaming); ok {
		v.thr, v.glob = s.Threshold(), s.ThresholdIsGlobal()
	}
	return v
}

// StartPartitionedStream launches a sharded streaming session over a
// partitioned push source: one ingest goroutine per partition feeds
// the shard workers directly. Every shard's operators are built before
// it returns (core.StreamRunner.Start), so the session is live: its
// first Poll and Checkpoint answer for the run. The session owns the
// source's partitions until the stream terminates.
func StartPartitionedStream(parts core.PartitionedSource, cfg Config, shards int) (*StreamSession, error) {
	cfg = cfg.withDefaults()
	if err := validateStreaming(shards); err != nil {
		return nil, err
	}
	s := &StreamSession{done: make(chan struct{}), parts: parts.Partitions()}
	explainers := make([]*explain.Streaming, shards)
	classifiers := make([]core.Classifier, shards)
	s.runner = newStreamRunner(parts, cfg, shards, explainers, classifiers)
	if err := s.runner.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		stats, err := s.runner.Wait()
		// Wait has returned, so this goroutine owns the shard replicas,
		// no worker will write to them again, and the in-place fold
		// (inlier trees aliased) is safe.
		views := make([]shardView, shards)
		for i := range views {
			views[i] = viewOf(explainers[i], classifiers[i])
		}
		s.final = s.newResult(stats, views)
		// Drop the runner's closure references (explainer replicas,
		// source, config) so a session kept around for polling does not
		// pin P shards of summary state. Post-done Poll/Stop only read
		// s.final, and no goroutine reads these particular fields
		// concurrently: Wait has returned, and Snapshot reads neither.
		s.runner.NewShard = nil
		s.runner.Partitioned = nil
		if err != core.ErrStopped {
			s.err = err
		}
	}()
	return s, nil
}

// Done reports whether the stream has terminated (source exhausted,
// stopped, or failed) and its final result is ready.
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
// ingest; once the run is over it returns the final result. Every live
// poll is one full recompute over clones it owns: concurrent polls
// share nothing, so none waits on another's merge.
func (s *StreamSession) Poll() (*ShardedResult, error) {
	// Each view clones the shard's summary on its worker goroutine: the
	// worker keeps consuming once the view returns, so the clone is the
	// isolation boundary. The classifier threshold rides along for the
	// live skew breakdown; it is all the view reads of the classifier,
	// which may be mid-refit (classify.Streaming.SetOffload). A
	// quarantined shard runs no view and leaves its entry zero.
	views := make([]shardView, s.runner.Shards)
	err := s.runner.Snapshot(func(shard int, pl core.ShardPipeline) {
		views[shard] = viewOf(pl.Explainer.(*explain.Streaming).Clone(), pl.Classifier)
	})
	if err != nil { // core.ErrNotStreaming: the run is over
		return s.Wait()
	}
	return s.newResult(s.runner.Stats(), views), nil
}

// Stop halts ingestion, waits for the workers to drain, and returns
// the final reconciled result. Stop is idempotent. A read in
// flight is interrupted through its context (ingest.Push mid-wait; the
// one-partition sources between reads).
func (s *StreamSession) Stop() (*ShardedResult, error) {
	s.runner.RequestStop()
	return s.Wait()
}

// Wait blocks until the stream terminates (source exhausted, stopped,
// or failed) and returns the final reconciled result and the stream's
// error, as Stop does, without asking the stream to stop.
func (s *StreamSession) Wait() (*ShardedResult, error) {
	<-s.done
	return s.final, s.err
}
