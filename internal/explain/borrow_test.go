package explain

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/itemtree"
)

// A merged explainer counts inliers on the shards' own trees instead of
// building their union. These tests hold that to the union: the fold
// every merge used to run survives as ownInliers (writers need it), and
// here it is the oracle.

// unionFold merges owned shards the old way: every leg folded,
// inlier trees included, into one explainer that borrows nothing.
func unionFold(shards []*Streaming) *Streaming {
	m := shards[0]
	mergeInto(m, shards[1:])
	m.ownInliers()
	return m
}

func cloneAll(shards []*Streaming) []*Streaming {
	out := make([]*Streaming, len(shards))
	for i, s := range shards {
		out[i] = s.Clone()
	}
	return out
}

// borrowShards builds p shard states after `decays` decay ticks. Points
// are routed by attribute-set hash, so a combination's support is
// spread over several shards, with the shapes the borrow could trip
// over forced in: item 30 is frequent among the outliers of shard 0
// only (so after a tick only shard 0's inlier tree admits it), shard 1
// of p >= 3 sees inliers without attributes only (a root-only inlier
// tree under a positive total), and shard 3 of p = 4 sees nothing. The
// risk-ratio bar is on the floor so that every frequent combination is
// reported and its inlier count compared.
func borrowShards(p, decays int, seed uint64) []*Streaming {
	cfg := StreamingConfig{MinSupport: 0.01, MinRiskRatio: 0.01, DecayRate: 0.1}
	shards := make([]*Streaming, p)
	for i := range shards {
		shards[i] = NewStreaming(cfg)
	}
	routed := p
	if p == 4 {
		routed = 3
	}
	rng := rand.New(rand.NewPCG(seed, 0xb0440))
	for round := 0; round <= decays; round++ {
		parts := make([][]core.LabeledPoint, p)
		for _, pt := range pollWorkload(rng, 3000) {
			sh := shardOf(pt.Attrs, routed)
			if rng.IntN(8) == 0 {
				pt.Attrs = append(pt.Attrs, 30)
				if pt.Label == core.Outlier {
					sh = 0
				}
			}
			if sh == 1 && p >= 3 && pt.Label == core.Inlier {
				pt.Attrs = nil
			}
			parts[sh] = append(parts[sh], pt)
		}
		for i, s := range shards {
			s.Consume(parts[i])
			if round < decays {
				s.Decay()
			}
		}
	}
	return shards
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestBorrowedInliersMatchUnionTree is the differential test against
// the union-tree oracle: same explanations in the same order, outlier
// side bit-equal, inlier counts bit-equal while weights are integers
// and within 1e-12 relative once a decay tick has made them fractions
// (P chain sums added in shard order against one chain sum over counts
// that were added in replay order), and the same answer on every poll.
func TestBorrowedInliersMatchUnionTree(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		for _, decays := range []int{0, 1, 5} {
			shards := borrowShards(p, decays, uint64(10*p+decays))
			if decays > 0 {
				if shards[0].inTree.ItemCount(30) == 0 || shards[p-1].inTree.ItemCount(30) != 0 {
					t.Fatalf("P=%d decays=%d: item 30 should be in shard 0's inlier tree only", p, decays)
				}
			}
			if p >= 3 && (shards[1].inTree.NumNodes() != 0 || shards[1].totalIn == 0) {
				t.Fatalf("P=%d: shard 1's inlier tree should be root-only under a positive total", p)
			}
			want := unionFold(cloneAll(shards)).Explanations()
			if len(want) < 10 {
				t.Fatalf("P=%d decays=%d: oracle yields only %d explanations", p, decays, len(want))
			}
			multi, worst, tol := 0, 0.0, 0.0
			if decays > 0 {
				tol = 1e-12
			}
			var first []core.Explanation
			for poll := 1; poll <= 2; poll++ {
				name := fmt.Sprintf("P=%d decays=%d poll %d", p, decays, poll)
				got := MergeStreamingInto(cloneAll(shards))
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Errorf("%s: output differs from the first poll", name)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d explanations, oracle %d", name, len(got), len(want))
				}
				for i := range got {
					g, o := got[i], want[i]
					if !reflect.DeepEqual(g.ItemIDs, o.ItemIDs) {
						t.Fatalf("%s: rank %d is %v, oracle %v", name, i, g.ItemIDs, o.ItemIDs)
					}
					if g.OutlierCount != o.OutlierCount || g.Support != o.Support ||
						g.TotalOutliers != o.TotalOutliers || g.TotalInliers != o.TotalInliers {
						t.Errorf("%s: %v outlier side (%v, %v) differs from oracle (%v, %v)",
							name, g.ItemIDs, g.OutlierCount, g.Support, o.OutlierCount, o.Support)
					}
					d := math.Max(relDiff(g.InlierCount, o.InlierCount), relDiff(g.RiskRatio, o.RiskRatio))
					if d > tol {
						t.Errorf("%s: %v inlier count %v (risk ratio %v), oracle %v (%v): off by %g relative",
							name, g.ItemIDs, g.InlierCount, g.RiskRatio, o.InlierCount, o.RiskRatio, d)
					}
					worst = math.Max(worst, d)
					if len(g.ItemIDs) > 1 && g.InlierCount > 0 {
						multi++
					}
				}
			}
			if multi == 0 {
				t.Errorf("P=%d decays=%d: no combination with inlier support was compared", p, decays)
			}
			t.Logf("P=%d decays=%d: %d explanations, largest relative difference %g", p, decays, len(want), worst)
		}
	}
}

// TestWritersOnMergedViewFoldFirst: Consume, Decay and Clone on an
// explainer that borrows trees keep Merge's old contract — they answer
// as if the inlier trees had been folded at merge time — and leave the
// source untouched.
func TestWritersOnMergedViewFoldFirst(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	extra := pollWorkload(rng, 500)
	for name, write := range map[string]func(*Streaming) *Streaming{
		"Decay":   func(s *Streaming) *Streaming { s.Decay(); return s },
		"Consume": func(s *Streaming) *Streaming { s.Consume(extra); return s },
		"Clone":   func(s *Streaming) *Streaming { return s.Clone() },
	} {
		shards := borrowShards(2, 1, 77)
		before := shards[1].Clone().Explanations()
		want := write(unionFold(cloneAll(shards))).Explanations()

		a := shards[0].Clone()
		a.Merge(shards[1])
		if len(a.borrowed) != 1 {
			t.Fatalf("%s: Merge borrowed %d trees, want 1", name, len(a.borrowed))
		}
		got := write(a)
		if len(got.borrowed) != 0 {
			t.Errorf("%s: result still borrows", name)
		}
		if exps := got.Explanations(); len(exps) == 0 || !reflect.DeepEqual(exps, want) {
			t.Errorf("%s on a merged view differs from the same write on the folded union", name)
		}
		if after := shards[1].Clone().Explanations(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s on a merged view changed the merged-in source", name)
		}
	}
}

// slabs returns a tree's node slab and header table. The arena is
// cps's own; the test reaches it to compare memory, not answers.
func slabs(t *cps.Tree) ([]itemtree.Node, []itemtree.Header) {
	f := reflect.ValueOf(t).Elem().FieldByName("arena")
	a := (*itemtree.Arena)(unsafe.Pointer(f.UnsafeAddr()))
	return a.Nodes, a.Headers
}

// TestMergeSharedBorrowsInlierTrees: a merged poll reads the shards'
// inlier trees in place — slabs untouched — and allocates nothing the
// size of one: before the borrow a poll copied shard 0's inlier slab
// and reserved room for every other shard's. The poll is the session's:
// MergeStreamingInto over fresh clones. The clones are taken outside
// the measured span, since copying is what a snapshot is for; what is
// measured is the merge and the answer, and every clone must come out
// of it with its inlier slab as it went in, and every clone but the
// one merged into as a plain explainer, not a merged view.
func TestMergeSharedBorrowsInlierTrees(t *testing.T) {
	cfg := StreamingConfig{MinSupport: 0.01, MinRiskRatio: 1.05, DecayRate: 0.1}
	shards := []*Streaming{NewStreaming(cfg), NewStreaming(cfg), NewStreaming(cfg)}
	rng := rand.New(rand.NewPCG(8, 9))
	parts := make([][]core.LabeledPoint, len(shards))
	for _, pt := range pollWorkload(rng, 2000) {
		sh := shardOf(pt.Attrs, len(shards))
		parts[sh] = append(parts[sh], pt)
	}
	// A wide inlier side (no decay tick yet, so every item is admitted):
	// tens of thousands of distinct paths, slabs that dwarf the rest of
	// a poll.
	for i := 0; i < 60_000; i++ {
		pt := core.LabeledPoint{Label: core.Inlier}
		for a := int32(rng.IntN(3)); a < 10 && len(pt.Attrs) < 4; a += 1 + int32(rng.IntN(3)) {
			pt.Attrs = append(pt.Attrs, a)
		}
		pt.Attrs = append(pt.Attrs, 100+int32(rng.IntN(4000)))
		parts[i%len(shards)] = append(parts[i%len(shards)], pt)
	}
	for i, s := range shards {
		s.Consume(parts[i])
	}
	type slab struct {
		nodes   []itemtree.Node
		headers []itemtree.Header
	}
	var pre []slab
	slabBytes := 0
	for _, s := range shards {
		n, h := slabs(s.inTree.Clone())
		pre = append(pre, slab{n, h})
		slabBytes += len(n) * int(unsafe.Sizeof(itemtree.Node{}))
	}
	if len(MergeStreamingInto(cloneAll(shards))) == 0 {
		t.Fatal("poll yields no explanations")
	}
	const polls = 5
	rounds := make([][]*Streaming, polls)
	for i := range rounds {
		rounds[i] = cloneAll(shards)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, owned := range rounds {
		MergeStreamingInto(owned)
	}
	runtime.ReadMemStats(&m1)
	perPoll := int(m1.TotalAlloc-m0.TotalAlloc) / polls
	t.Logf("inlier slabs %d KB, a poll allocates %d KB", slabBytes>>10, perPoll>>10)
	if perPoll > slabBytes/8 {
		t.Errorf("a merged poll allocates %d bytes against %d bytes of inlier slabs: something inlier-sized is being copied", perPoll, slabBytes)
	}
	for _, owned := range rounds {
		for i, s := range owned {
			n, h := slabs(s.inTree)
			if !reflect.DeepEqual(n, pre[i].nodes) || !reflect.DeepEqual(h, pre[i].headers) {
				t.Errorf("shard %d: inlier tree changed under a merged poll", i)
			}
			if i > 0 && len(s.borrowed) != 0 {
				t.Errorf("shard %d: poll input was turned into a view", i)
			}
		}
		if len(owned[0].borrowed) != len(shards)-1 {
			t.Errorf("the merged clone borrows %d inlier trees, want %d", len(owned[0].borrowed), len(shards)-1)
		}
	}
}
