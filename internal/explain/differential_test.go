package explain

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"macrobase/internal/core"
)

// Differential harness for the poll worker count: a randomized
// interleaving of consume/decay/poll operations is replayed against
// explainers that differ only in PollParallelism, and every poll must
// produce byte-identical ranked output (reflect.DeepEqual over the full
// Explanation structs, i.e. bit-equal floats — the striped stages only
// split index-addressed work, so not even last-ulp drift is tolerated).
// Failures shrink: the op sequence is greedily minimized while it still
// fails, and the minimal sequence plus its seed are reported for
// replay.

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

// diffParallelisms are the PollParallelism values every differential
// replay runs side by side: W=1 runs every stage's one body inline and
// is the reference, W=2/4/8 stripe it (8 is wider than the four merge
// legs and than the degenerate tables below, so the clamp is exercised
// too). Every poll must be reflect.DeepEqual-identical across all of
// them.
var diffParallelisms = []int{1, 2, 4, 8}

// degenerateDiffOps scripts the index spaces striping could trip over:
// script k keeps the combination table at exactly k itemsets (k disjoint
// outlier pairs; none at k=0), far fewer than the widest W, across polls
// after fresh outliers, after inlier-only movement, after no movement
// and after a decay tick. TestDifferentialCachedVsFullSequential pins
// the table sizes.
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

// runDiffSequential replays ops against one explainer per
// PollParallelism and returns a description of the first poll at which
// a striped one diverges from W=1 ("" = none).
func runDiffSequential(cfg StreamingConfig, ops []diffOp) string {
	exps := make([]*Streaming, len(diffParallelisms))
	for i, w := range diffParallelisms {
		wcfg := cfg
		wcfg.PollParallelism = w
		exps[i] = NewStreaming(wcfg)
	}
	for i, op := range ops {
		switch op.kind {
		case diffConsume:
			for _, s := range exps {
				s.Consume(op.batch)
			}
		case diffDecay:
			for _, s := range exps {
				s.Decay()
			}
		case diffPoll:
			want := exps[0].Explanations()
			for j, s := range exps[1:] {
				if got := s.Explanations(); !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("op %d (poll, W=%d): %d exps != W=1's %d\nW=%d: %v\nW=1: %v",
						i, diffParallelisms[j+1], len(got), len(want), diffParallelisms[j+1], got, want)
				}
			}
		}
	}
	return ""
}

// runDiffSharded replays ops against one set of p shards per
// PollParallelism; every poll merges fresh clones of each set in place
// (MergeStreamingInto, the session serving path), and the striped sets
// must match the W=1 set.
func runDiffSharded(cfg StreamingConfig, ops []diffOp, p int) string {
	sets := make([][]*Streaming, len(diffParallelisms))
	for wi, w := range diffParallelisms {
		wcfg := cfg
		wcfg.PollParallelism = w
		sets[wi] = make([]*Streaming, p)
		for i := 0; i < p; i++ {
			sets[wi][i] = NewStreaming(wcfg)
		}
	}
	clones := func(ss []*Streaming) []*Streaming {
		out := make([]*Streaming, len(ss))
		for i, s := range ss {
			out[i] = s.Clone()
		}
		return out
	}
	for i, op := range ops {
		switch op.kind {
		case diffConsume:
			parts := make([][]core.LabeledPoint, p)
			for j := range op.batch {
				sh := shardOf(op.batch[j].Attrs, p)
				parts[sh] = append(parts[sh], op.batch[j])
			}
			for _, set := range sets {
				for j, s := range set {
					s.Consume(parts[j])
				}
			}
		case diffDecay:
			for _, set := range sets {
				for _, s := range set {
					s.Decay()
				}
			}
		case diffPoll:
			want := MergeStreamingInto(clones(sets[0]))
			for wi := 1; wi < len(sets); wi++ {
				if got := MergeStreamingInto(clones(sets[wi])); !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("op %d (sharded poll, P=%d W=%d): %d exps != W=1's %d\nW=%d: %v\nW=1: %v",
						i, p, diffParallelisms[wi], len(got), len(want), diffParallelisms[wi], got, want)
				}
			}
		}
	}
	return ""
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
	t.Errorf("striped explanations diverged from W=1 (seed %d)\nminimal reproducer (%d ops):", seed, len(min))
	for i, op := range min {
		t.Logf("  %2d: %s", i, op)
	}
	t.Log(run(min))
}

func diffConfigs() []StreamingConfig {
	return []StreamingConfig{
		{MinSupport: 0.01, MinRiskRatio: 1.1, DecayRate: 0.1},
		// Confidence intervals + Bonferroni exercise the tested-count
		// bookkeeping, which must not depend on W either.
		{MinSupport: 0.02, MinRiskRatio: 1.05, DecayRate: 0.2, Confidence: 0.95, Bonferroni: true},
		{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05, MaxItems: 2},
	}
}

// TestDifferentialCachedVsFullSequential: single explainers at every W
// against W=1, over random interleavings and the degenerate scripts,
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

// TestDifferentialCachedVsFullSharded: merged polls over P=3 shard sets
// at every W against W=1, and the degenerate scripts at P=1..4.
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
