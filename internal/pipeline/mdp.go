// Package pipeline assembles MacroBase's Default Pipeline (MDP, paper
// Figure 2) from the classification and explanation operators and
// executes it in the paper's operating modes: one-shot batch execution
// over stored data, exponentially weighted streaming (EWS), naive
// shared-nothing parallel execution (Appendix D), and a hand-fused
// "fastpath" kernel standing in for the paper's C++ comparison
// (Table 3).
package pipeline

import (
	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// Config carries MDP's query parameters. Zero fields take the paper's
// §6 defaults: 1% outlier percentile, 0.1% minimum support, risk ratio
// 3, ADR/AMC sizes of 10K, decay 0.01 every 100K points.
type Config struct {
	// Dims is the number of metric dimensions after transformation
	// (required). One metric selects MAD, several select MCD
	// (paper §4.1).
	Dims int
	// Percentile is the outlier score cutoff quantile (default
	// 0.99).
	Percentile float64
	// MinSupport is the minimum outlier support (default 0.001).
	MinSupport float64
	// MinRiskRatio is the minimum risk ratio (default 3).
	MinRiskRatio float64
	// DecayRate is the exponential damping per decay tick (default
	// 0.01).
	DecayRate float64
	// DecayEveryPoints schedules streaming decay ticks (default
	// 100_000).
	DecayEveryPoints int
	// ReservoirSize is the ADR capacity (default 10_000).
	ReservoirSize int
	// RetrainEvery is the streaming model refresh period in points
	// (default 100_000).
	RetrainEvery int
	// Confidence, when positive, attaches risk-ratio CIs.
	Confidence float64
	// TrainSampleSize, for one-shot execution, trains on a sample of
	// at most this many points (0 = full data; Figure 9 studies
	// this).
	TrainSampleSize int
	// BatchSize is the runner batch size (default 4096).
	BatchSize int
	// Transforms are optional feature-transformation stages applied
	// before classification (paper §3.2 stage 2).
	Transforms []core.Transformer
	// Classifier, when non-nil, replaces the default MDP classifier
	// (e.g. the hybrid-supervision pipeline of §6.4).
	Classifier core.Classifier
	// NewClassifier, when non-nil, builds one classifier replica per
	// shard — the sharded-legal form of Classifier (operator instances
	// are stateful, so shards need replicas, not a shared instance).
	// Mutually exclusive with Classifier.
	NewClassifier func(shard int) core.Classifier
	// Trainer, when non-nil, replaces the default MAD/MCD model
	// selection.
	Trainer classify.Trainer
	// CoordinateEvery is the cross-shard coordinator's cadence in
	// ingested points (default 25_000; core.StreamRunner.CoordinateEvery).
	// Every so many points the coordinator runs one pass: it collects
	// each shard's score-quantile summary, merges them into a global
	// percentile cutoff, and pushes it back to every shard classifier,
	// so an anomaly concentrated on one shard cannot silently inflate
	// that shard's local threshold and suppress the merged explanation;
	// and it checks the routing table's load window for a rebalance. A
	// pass runs whichever of the two is on (DisableGlobalThreshold,
	// DisableRebalance). Irrelevant with one shard (a single pipeline
	// already computes the global quantile, and there is nothing to
	// route); threshold rounds are no-ops for custom classifiers that do
	// not implement classify.ThresholdCoordinable.
	CoordinateEvery int
	// RoutingBuckets is the skew-adaptive router's requested virtual-
	// bucket count (default core.DefaultRoutingBuckets = 256; the
	// effective count is rounded up to a multiple of the shard count so
	// that, until the first rebalance, placement is bit-identical to the
	// direct hash).
	RoutingBuckets int
	// RebalanceAbove is the load-imbalance trigger for skew-adaptive
	// routing (default 1.5): when the hottest healthy shard's windowed
	// load share times the shard count exceeds it, the coordinator
	// migrates hot buckets to cooler shards and publishes a new routing
	// epoch. See core.RebalancePolicy.
	RebalanceAbove float64
	// DisableRebalance turns skew-adaptive routing off, pinning the
	// identity routing table, and so every attribute set to its
	// HashPartition shard, for the whole run. Set it
	// when bit-exact cross-run reproducibility matters more than load
	// balance (rebalance rounds fire asynchronously with ingest, so
	// routed runs can split an attribute set's counts across shards at
	// slightly different points run-to-run). Rebalancing is on by
	// default for multi-shard streaming runs and inactive for one shard.
	DisableRebalance bool
	// DisableGlobalThreshold turns coordination off, restoring the
	// pre-coordination per-shard percentile cutoffs. Set it when
	// bit-exact reproducibility across runs matters more than answer
	// quality under skew: coordination rounds fire asynchronously with
	// ingest, so coordinated multi-shard runs are not bit-exact
	// run-to-run (they converge to the same explanations, with risk
	// ratios varying slightly with round timing).
	DisableGlobalThreshold bool
	// Seed fixes all randomized components.
	Seed uint64

	// noRetrainStagger restores the lockstep retrain schedule of
	// coordinated multi-shard runs (see newShardPipeline), so the
	// stagger test has a baseline to compare against. Unexported: only
	// this package's tests set it.
	noRetrainStagger bool
}

func (c Config) withDefaults() Config {
	if c.Percentile == 0 {
		c.Percentile = 0.99
	}
	if c.MinSupport == 0 {
		c.MinSupport = 0.001
	}
	if c.MinRiskRatio == 0 {
		c.MinRiskRatio = 3
	}
	if c.DecayRate == 0 {
		c.DecayRate = 0.01
	}
	if c.DecayEveryPoints == 0 {
		c.DecayEveryPoints = 100_000
	}
	if c.ReservoirSize == 0 {
		c.ReservoirSize = 10_000
	}
	if c.RetrainEvery == 0 {
		c.RetrainEvery = 100_000
	}
	if c.BatchSize == 0 {
		c.BatchSize = 4096
	}
	if c.CoordinateEvery == 0 {
		c.CoordinateEvery = 25_000
	}
	return c
}

// Result is one query execution's output.
type Result struct {
	Stats core.RunStats
	// Explanations are ranked by risk ratio (explain.Rank order).
	// They carry encoded item ids; decorate with the encoder before
	// presentation.
	Explanations []core.Explanation
}

// RunStreaming executes MDP in exponentially weighted streaming mode
// over src: the streaming classifier (ADR-trained MAD/MCD + percentile
// threshold) feeds the streaming explainer (AMC + M-CPS-trees), with
// decay ticks on the configured tuple period. It is
// RunPartitionedStream on one shard, which for a one-partition source
// is the paper's sequential EWS pipeline.
func RunStreaming(src core.PartitionedSource, cfg Config) (*Result, error) {
	res, err := RunPartitionedStream(src, cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Result{Stats: res.Stats.RunStats, Explanations: res.Explanations}, nil
}

// RunOneShot executes MDP in one-shot batch mode over stored points
// (paper §3.2 "one-shot queries"): transforms are applied in a single
// streaming pass, the model is trained once over the transformed data
// (optionally a sample), every point is scored, the threshold is the
// configured percentile of the observed scores, and the batch
// explainer (Algorithm 2) summarizes the labeled set.
func RunOneShot(pts []core.Point, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	transformed, stats := applyTransforms(pts, cfg)

	labeled, err := classifyOneShot(transformed, cfg)
	if err != nil {
		return nil, err
	}
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			stats.Outliers++
		}
	}
	exps := explain.ExplainBatch(labeled, explain.BatchConfig{
		MinSupport:   cfg.MinSupport,
		MinRiskRatio: cfg.MinRiskRatio,
		Confidence:   cfg.Confidence,
	})
	return &Result{Stats: stats, Explanations: exps}, nil
}

// ClassifyOneShot exposes the one-shot classify stage without
// explanation, for experiments that measure the stages separately
// (e.g. Table 2's "without explanation" columns).
func ClassifyOneShot(pts []core.Point, cfg Config) ([]core.LabeledPoint, error) {
	cfg = cfg.withDefaults()
	transformed, _ := applyTransforms(pts, cfg)
	return classifyOneShot(transformed, cfg)
}

func applyTransforms(pts []core.Point, cfg Config) ([]core.Point, core.RunStats) {
	stats := core.RunStats{Points: len(pts)}
	if len(cfg.Transforms) == 0 {
		stats.OutPoints = len(pts)
		return pts, stats
	}
	cur := pts
	for _, t := range cfg.Transforms {
		next := t.Transform(nil, cur)
		if ft, ok := t.(core.FlushingTransformer); ok {
			next = ft.Flush(next)
		}
		cur = next
	}
	stats.OutPoints = len(cur)
	return cur, stats
}

func classifyOneShot(pts []core.Point, cfg Config) ([]core.LabeledPoint, error) {
	if cfg.Classifier != nil {
		return cfg.Classifier.ClassifyBatch(nil, pts), nil
	}
	trainer := cfg.Trainer
	if trainer == nil {
		trainer = classify.AutoTrainer(cfg.Dims, cfg.Seed)
	}
	fitted, _, err := classify.FitBatch(pts, trainer, classify.FitBatchConfig{
		Percentile:      cfg.Percentile,
		TrainSampleSize: cfg.TrainSampleSize,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return fitted.ClassifyBatch(make([]core.LabeledPoint, 0, len(pts)), pts), nil
}
