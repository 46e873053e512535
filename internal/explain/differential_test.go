package explain

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"macrobase/internal/core"
)

// Differential harness for the poll: a randomized interleaving of
// consume/decay/poll operations is replayed against an explainer (or a
// set of shards polled through clone + merge) and against the
// brute-force model of fuzz_test.go, and every poll must produce the
// model's explanation set with its counts. The configurations keep
// decay at retain 0.5 and support at powers of two, so every weight and
// threshold is an exact dyadic rational and the model agrees with the
// trees on every >= comparison. Failures shrink: the op sequence is
// greedily minimized while it still fails, and the minimal sequence
// plus its seed are reported for replay.

type diffOpKind uint8

const (
	diffConsume diffOpKind = iota
	diffDecay
	diffPoll
)

// diffOp is one scripted operation. Consume ops carry their batch
// materialized at generation time, so removing ops during shrinking
// does not perturb the data the remaining ops replay.
type diffOp struct {
	kind  diffOpKind
	batch []core.LabeledPoint
}

func (o diffOp) String() string {
	switch o.kind {
	case diffConsume:
		outs := 0
		for i := range o.batch {
			if o.batch[i].Label == core.Outlier {
				outs++
			}
		}
		return fmt.Sprintf("consume(%d pts, %d outliers)", len(o.batch), outs)
	case diffDecay:
		return "decay"
	default:
		return "poll"
	}
}

// genDiffOps scripts a random interleaving. Adjacent polls and
// inlier-only batches are generated deliberately often, so polls meet
// unmoved and inlier-only-moved state as well as fresh outliers;
// occasional attribute-less points move the totals without touching a
// tree.
func genDiffOps(rng *rand.Rand, nOps int) []diffOp {
	ops := make([]diffOp, 0, nOps)
	for len(ops) < nOps {
		switch rng.IntN(10) {
		case 0, 1, 2, 3:
			ops = append(ops, diffOp{kind: diffConsume, batch: genDiffBatch(rng)})
		case 4:
			ops = append(ops, diffOp{kind: diffDecay})
		default:
			ops = append(ops, diffOp{kind: diffPoll})
			if rng.IntN(2) == 0 {
				ops = append(ops, diffOp{kind: diffPoll}) // adjacent polls: nothing moved between them
			}
		}
	}
	return ops
}

func genDiffBatch(rng *rand.Rand) []core.LabeledPoint {
	n := 1 + rng.IntN(40)
	inlierOnly := rng.IntN(3) == 0 // the outlier side stays put
	batch := make([]core.LabeledPoint, n)
	for i := range batch {
		p := &batch[i]
		p.Label = core.Inlier
		if !inlierOnly && rng.IntN(4) == 0 {
			p.Label = core.Outlier
		}
		if rng.IntN(20) == 0 {
			continue // attribute-less point: moves totals but no tree
		}
		seen := map[int32]bool{}
		if p.Label == core.Outlier && rng.IntN(2) == 0 {
			seen[1], seen[2] = true, true
		}
		for len(seen) < 1+rng.IntN(4) {
			seen[int32(rng.IntN(12))] = true
		}
		// Emit attrs in sorted order, not map-iteration order: batch
		// content (and hence shard partitioning) must be a pure
		// function of the seed so a reported reproducer seed replays
		// the identical failing input in another process.
		for a := range seen {
			p.Attrs = append(p.Attrs, a)
		}
		slices.Sort(p.Attrs)
	}
	return batch
}

// degenerateDiffOps scripts the smallest combination tables: script k
// keeps the table at exactly k itemsets (k disjoint outlier pairs; none
// at k=0) across polls after fresh outliers, after inlier-only
// movement, after no movement and after a decay tick.
// TestDifferentialCachedVsFullSequential pins the table sizes.
func degenerateDiffOps() [][]diffOp {
	pt := func(label core.Label, attrs ...int32) core.LabeledPoint {
		return core.LabeledPoint{Point: core.Point{Attrs: attrs}, Label: label}
	}
	scripts := make([][]diffOp, 4)
	for k := range scripts {
		var batch []core.LabeledPoint
		for rep := 0; rep < 3; rep++ {
			batch = append(batch, pt(core.Outlier, 20)) // a lone single: the k=0 outlier side
			for j := int32(0); j < int32(k); j++ {
				batch = append(batch, pt(core.Outlier, 2*j, 2*j+1))
			}
			for a := int32(0); a < 8; a++ {
				batch = append(batch, pt(core.Inlier, a, 21))
			}
		}
		poll := diffOp{kind: diffPoll}
		scripts[k] = []diffOp{
			{kind: diffConsume, batch: batch}, poll,
			{kind: diffConsume, batch: batch[:len(batch)/3]}, poll, // outliers moved
			{kind: diffConsume, batch: []core.LabeledPoint{pt(core.Inlier, 0, 1)}}, poll, // inliers only
			poll, // nothing moved
			{kind: diffDecay}, poll,
		}
	}
	return scripts
}

// runDiffSequential replays ops against one explainer and its model
// and returns a description of the first poll at which they diverge
// ("" = none).
func runDiffSequential(cfg StreamingConfig, ops []diffOp) string {
	s := NewStreaming(cfg)
	m := newStreamModel(cfg)
	for i, op := range ops {
		switch op.kind {
		case diffConsume:
			s.Consume(op.batch)
			m.consume(op.batch)
		case diffDecay:
			s.Decay()
			m.decay()
		case diffPoll:
			if msg := diffModel(s.Explanations(), m); msg != "" {
				return fmt.Sprintf("op %d (poll): %s", i, msg)
			}
		}
	}
	return ""
}

// runDiffSharded replays ops against p shards and one model per shard;
// every poll merges fresh clones of the shards in place
// (MergeStreamingInto, the session serving path) and must match the
// merge of the shard models.
func runDiffSharded(cfg StreamingConfig, ops []diffOp, p int) string {
	shards := make([]*Streaming, p)
	models := make([]*streamModel, p)
	for i := range shards {
		shards[i] = NewStreaming(cfg)
		models[i] = newStreamModel(cfg)
	}
	for i, op := range ops {
		switch op.kind {
		case diffConsume:
			parts := make([][]core.LabeledPoint, p)
			for j := range op.batch {
				sh := shardOf(op.batch[j].Attrs, p)
				parts[sh] = append(parts[sh], op.batch[j])
			}
			for j, s := range shards {
				s.Consume(parts[j])
				models[j].consume(parts[j])
			}
		case diffDecay:
			for j, s := range shards {
				s.Decay()
				models[j].decay()
			}
		case diffPoll:
			owned := make([]*Streaming, p)
			for j, s := range shards {
				owned[j] = s.Clone()
			}
			if msg := diffModel(MergeStreamingInto(owned), mergeModels(models)); msg != "" {
				return fmt.Sprintf("op %d (sharded poll, P=%d): %s", i, p, msg)
			}
		}
	}
	return ""
}

// consume feeds a labeled batch to the model.
func (m *streamModel) consume(batch []core.LabeledPoint) {
	for i := range batch {
		m.insert(batch[i].Attrs, batch[i].Label == core.Outlier)
	}
}

// shrinkDiffOps greedily minimizes a failing op sequence: it walks the
// ops back to front trying to delete each one (restarting after any
// successful deletion) while run keeps reporting a failure. run is
// re-executed from scratch on every candidate, so the result is a
// 1-minimal reproducer.
func shrinkDiffOps(ops []diffOp, run func([]diffOp) string) []diffOp {
	for {
		shrunk := false
		for i := len(ops) - 1; i >= 0; i-- {
			cand := append(append([]diffOp{}, ops[:i]...), ops[i+1:]...)
			if run(cand) != "" {
				ops = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return ops
		}
	}
}

func reportDiffFailure(t *testing.T, seed uint64, ops []diffOp, run func([]diffOp) string) {
	t.Helper()
	min := shrinkDiffOps(ops, run)
	t.Errorf("explanations diverged from the model (seed %d)\nminimal reproducer (%d ops):", seed, len(min))
	for i, op := range min {
		t.Logf("  %2d: %s", i, op)
	}
	t.Log(run(min))
}

func diffConfigs() []StreamingConfig {
	return []StreamingConfig{
		{MinSupport: 1.0 / 64, MinRiskRatio: 1.125, DecayRate: 0.5},
		// Confidence intervals + Bonferroni run the tested-count
		// bookkeeping beside the counts.
		{MinSupport: 1.0 / 32, MinRiskRatio: 1.0625, DecayRate: 0.5, Confidence: 0.95, Bonferroni: true},
		{MinSupport: 1.0 / 128, MinRiskRatio: 1.25, DecayRate: 0.5, MaxItems: 2},
	}
}

// TestDifferentialCachedVsFullSequential: a single explainer against
// the model, over random interleavings and the degenerate scripts,
// whose table sizes it also holds to the ones they are named for.
func TestDifferentialCachedVsFullSequential(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		for seed := uint64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(ci)*977+13))
			ops := genDiffOps(rng, 60)
			run := func(o []diffOp) string { return runDiffSequential(cfg, o) }
			if msg := run(ops); msg != "" {
				reportDiffFailure(t, seed, ops, run)
				return
			}
		}
		for k, ops := range degenerateDiffOps() {
			run := func(o []diffOp) string { return runDiffSequential(cfg, o) }
			if msg := run(ops); msg != "" {
				reportDiffFailure(t, uint64(k), ops, run)
				return
			}
		}
	}
	for k, ops := range degenerateDiffOps() {
		s := NewStreaming(diffConfigs()[0])
		for i, op := range ops {
			switch op.kind {
			case diffConsume:
				s.Consume(op.batch)
			case diffDecay:
				s.Decay()
			case diffPoll:
				if n := len(s.fullTable(s.cfg.MinSupport * s.totalOut)); n != k {
					t.Errorf("degenerate script %d, op %d: table of %d itemsets", k, i, n)
				}
			}
		}
	}
}

// TestDifferentialCachedVsFullSharded: merged polls over P=3 shards
// against the merged shard models, and the degenerate scripts at
// P=1..4.
func TestDifferentialCachedVsFullSharded(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		for seed := uint64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewPCG(seed*31+7, uint64(ci)*1471+29))
			ops := genDiffOps(rng, 50)
			run := func(o []diffOp) string { return runDiffSharded(cfg, o, 3) }
			if msg := run(ops); msg != "" {
				reportDiffFailure(t, seed, ops, run)
				return
			}
		}
		for k, ops := range degenerateDiffOps() {
			for p := 1; p <= 4; p++ {
				run := func(o []diffOp) string { return runDiffSharded(cfg, o, p) }
				if msg := run(ops); msg != "" {
					reportDiffFailure(t, uint64(k), ops, run)
					return
				}
			}
		}
	}
}
