package explain

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"macrobase/internal/core"
)

// Differential harness for the incremental mining cache: a randomized
// interleaving of consume/decay/poll operations is replayed against a
// cache-enabled and a cache-disabled explainer, and every poll must
// produce byte-identical ranked output (reflect.DeepEqual over the
// full Explanation structs, i.e. bit-equal floats — the cached paths
// reuse prior results only when the state is provably identical, so
// not even last-ulp drift is tolerated). Failures shrink: the op
// sequence is greedily minimized while it still fails, and the minimal
// sequence plus its seed are reported for replay.

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

// genDiffOps scripts a random interleaving. Poll-after-poll and
// inlier-only batches are generated deliberately often so the full-hit
// and mine-reuse cache paths are exercised, not just the cold path;
// occasional attribute-less points stress the total-only key
// movement.
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
				ops = append(ops, diffOp{kind: diffPoll}) // adjacent polls: full-hit path
			}
		}
	}
	return ops
}

func genDiffBatch(rng *rand.Rand) []core.LabeledPoint {
	n := 1 + rng.IntN(40)
	inlierOnly := rng.IntN(3) == 0 // mine-reuse path: the outlier side stays put
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
// replay runs side by side: W=1 runs every stage's one body inline,
// W=2/4/8 stripe it (8 is wider than the four merge legs and than the
// degenerate tables below, so the clamp is exercised too). Every poll
// must be reflect.DeepEqual-identical across all of them (and to the
// cache-disabled reference), and so must the CacheStats — which path
// served a poll may not depend on W either.
var diffParallelisms = []int{1, 2, 4, 8}

// degenerateDiffOps scripts the index spaces striping could trip over:
// script k keeps the combination table at exactly k itemsets (k disjoint
// outlier pairs; none at k=0), far fewer than the widest W, across a
// cold full mine, a journal delta, a mine reuse, a full hit and a
// post-decay re-mine. TestDifferentialExercisesCachePaths pins the
// table sizes.
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
			{kind: diffConsume, batch: batch[:len(batch)/3]}, poll, // outliers moved: delta
			{kind: diffConsume, batch: []core.LabeledPoint{pt(core.Inlier, 0, 1)}}, poll, // mine reuse
			poll, // full hit
			{kind: diffDecay}, poll,
		}
	}
	return scripts
}

// runDiffSequential replays ops against uncached W=1 reference plus
// cached explainers at each PollParallelism, and returns a description
// of the first divergence ("" = none).
func runDiffSequential(cfg StreamingConfig, ops []diffOp) string {
	plainCfg := cfg
	plainCfg.noCache = true
	plainCfg.PollParallelism = 1
	plain := NewStreaming(plainCfg)
	cached := make([]*Streaming, len(diffParallelisms))
	for i, w := range diffParallelisms {
		wcfg := cfg
		wcfg.PollParallelism = w
		cached[i] = NewStreaming(wcfg)
	}
	for i, op := range ops {
		switch op.kind {
		case diffConsume:
			plain.Consume(op.batch)
			for _, c := range cached {
				c.Consume(op.batch)
			}
		case diffDecay:
			plain.Decay()
			for _, c := range cached {
				c.Decay()
			}
		case diffPoll:
			want := plain.Explanations()
			for j, c := range cached {
				got := c.Explanations()
				if !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("op %d (poll, W=%d): cached %d exps != plain %d exps\ncached: %v\nplain:  %v",
						i, diffParallelisms[j], len(got), len(want), got, want)
				}
				if st, st0 := c.CacheStats(), cached[0].CacheStats(); st != st0 {
					return fmt.Sprintf("op %d (poll, W=%d): cache stats %+v != W=%d's %+v",
						i, diffParallelisms[j], st, diffParallelisms[0], st0)
				}
			}
		}
	}
	return ""
}

// runDiffSharded replays ops against sets of p shards: one cached set
// per PollParallelism value polls through its own resident PollMerger
// over snapshot clones (the session serving path), while the plain
// side re-merges cache-disabled W=1 clones from scratch at every poll.
func runDiffSharded(cfg StreamingConfig, ops []diffOp, p int) string {
	plainCfg := cfg
	plainCfg.noCache = true
	plainCfg.PollParallelism = 1
	plain := make([]*Streaming, p)
	for i := 0; i < p; i++ {
		plain[i] = NewStreaming(plainCfg)
	}
	cached := make([][]*Streaming, len(diffParallelisms))
	mergers := make([]*PollMerger, len(diffParallelisms))
	for wi, w := range diffParallelisms {
		wcfg := cfg
		wcfg.PollParallelism = w
		cached[wi] = make([]*Streaming, p)
		for i := 0; i < p; i++ {
			cached[wi][i] = NewStreaming(wcfg)
		}
		mergers[wi] = NewPollMerger()
	}
	clones := func(ss []*Streaming) []*Streaming {
		out := make([]*Streaming, len(ss))
		for i, s := range ss {
			// SnapshotClone, matching the session layer: re-anchoring the
			// live journal at each snapshot is what lets the merger serve
			// delta updates across polls.
			out[i] = s.SnapshotClone()
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
			for j := 0; j < p; j++ {
				plain[j].Consume(parts[j])
				for wi := range cached {
					cached[wi][j].Consume(parts[j])
				}
			}
		case diffDecay:
			for j := 0; j < p; j++ {
				plain[j].Decay()
				for wi := range cached {
					cached[wi][j].Decay()
				}
			}
		case diffPoll:
			want := MergeStreamingInto(clones(plain))
			for wi := range cached {
				got := mergers[wi].Merge(clones(cached[wi]))
				if !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("op %d (sharded poll, P=%d W=%d): cached %d exps != plain %d exps\ncached: %v\nplain:  %v",
						i, p, diffParallelisms[wi], len(got), len(want), got, want)
				}
				if st, st0 := mergers[wi].Stats(), mergers[0].Stats(); st != st0 {
					return fmt.Sprintf("op %d (sharded poll, P=%d W=%d): cache stats %+v != W=%d's %+v",
						i, p, diffParallelisms[wi], st, diffParallelisms[0], st0)
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
	t.Errorf("cached explanations diverged from full recompute (seed %d)\nminimal reproducer (%d ops):", seed, len(min))
	for i, op := range min {
		t.Logf("  %2d: %s", i, op)
	}
	t.Log(run(min))
}

func diffConfigs() []StreamingConfig {
	return []StreamingConfig{
		{MinSupport: 0.01, MinRiskRatio: 1.1, DecayRate: 0.1},
		// Confidence intervals + Bonferroni exercise the tested-count
		// bookkeeping that the cached paths must reproduce exactly.
		{MinSupport: 0.02, MinRiskRatio: 1.05, DecayRate: 0.2, Confidence: 0.95, Bonferroni: true},
		{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05, MaxItems: 2},
	}
}

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
}

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

// TestDifferentialExercisesCachePaths guards the harness itself: the
// generated interleavings must actually drive every cache path, or
// the equality assertions above would be vacuous.
func TestDifferentialExercisesCachePaths(t *testing.T) {
	cfg := diffConfigs()[0]
	var seq, sh CacheStats
	for seed := uint64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		ops := genDiffOps(rng, 60)

		s := NewStreaming(cfg)
		for _, op := range ops {
			switch op.kind {
			case diffConsume:
				s.Consume(op.batch)
			case diffDecay:
				s.Decay()
			case diffPoll:
				s.Explanations()
			}
		}
		seq.Add(s.CacheStats())

		rng = rand.New(rand.NewPCG(seed, 13))
		ops = genDiffOps(rng, 60)
		merger := NewPollMerger()
		shards := []*Streaming{NewStreaming(cfg), NewStreaming(cfg), NewStreaming(cfg)}
		for _, op := range ops {
			switch op.kind {
			case diffConsume:
				parts := make([][]core.LabeledPoint, len(shards))
				for j := range op.batch {
					k := shardOf(op.batch[j].Attrs, len(shards))
					parts[k] = append(parts[k], op.batch[j])
				}
				for j := range shards {
					shards[j].Consume(parts[j])
				}
			case diffDecay:
				for j := range shards {
					shards[j].Decay()
				}
			case diffPoll:
				cl := make([]*Streaming, len(shards))
				for j := range shards {
					cl[j] = shards[j].SnapshotClone()
				}
				merger.Merge(cl)
			}
		}
		sh.Add(merger.Stats())
	}
	if seq.FullHits == 0 || seq.MineReuses == 0 || seq.FullMines == 0 {
		t.Errorf("sequential interleavings missed a cache path: %+v", seq)
	}
	if seq.DeltaMines == 0 || seq.JournalOverflows == 0 {
		t.Errorf("sequential interleavings missed a delta path: %+v", seq)
	}
	if sh.FullHits == 0 || sh.MineReuses == 0 || sh.FullMines == 0 {
		t.Errorf("sharded interleavings missed a cache path: %+v", sh)
	}
	if sh.DeltaMines == 0 || sh.JournalOverflows == 0 {
		t.Errorf("sharded interleavings missed a delta path: %+v", sh)
	}
	// The degenerate scripts must hold the table sizes they are named
	// for, through every cache path.
	for k, ops := range degenerateDiffOps() {
		s := NewStreaming(cfg)
		for i, op := range ops {
			switch op.kind {
			case diffConsume:
				s.Consume(op.batch)
			case diffDecay:
				s.Decay()
			case diffPoll:
				s.Explanations()
				if len(s.mineCache) != k {
					t.Errorf("degenerate script %d, op %d: table of %d itemsets", k, i, len(s.mineCache))
				}
			}
		}
		if st := s.CacheStats(); st.FullHits == 0 || st.MineReuses == 0 || st.FullMines < 2 || st.DeltaMines == 0 {
			t.Errorf("degenerate script %d missed a cache path: %+v", k, st)
		}
	}
}
