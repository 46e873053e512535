package cps

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/gen"
	"macrobase/internal/itemtree"
)

// restructureReplay is the reference restructure: extract, reset, then
// re-insert every extracted transaction in extraction order through
// Insert. Restructure's rebuild must reproduce it bit for bit on every
// call.
func (t *Tree) restructureReplay(items []int32, counts []float64, retain float64) {
	t.arena.Decay(retain)
	t.extractPaths(nil)
	t.stageOrder(items, counts)
	for i := 0; i < t.numPaths(); i++ {
		t.Insert(t.path(i), t.pathW[i])
	}
}

// treeShape is what the rebuild must share with the replay: per node,
// keyed by its root-first item path, the count's bits and the items of
// its children in child order (descending index); per path ForEachPath
// yields, the weight's bits; per item, the header count's bits.
type treeShape struct {
	nodes   map[string]string
	paths   map[string]uint64
	headers map[int32]uint64
}

// childLists derives every node's children from Parent in one reverse
// pass over the slab: the nodes naming each parent, in descending index
// order, the order childSums adds them in. Every parent must precede
// its child in the slab.
func childLists(nodes []itemtree.Node) [][]int32 {
	kids := make([][]int32, len(nodes))
	for i := len(nodes) - 1; i > 0; i-- {
		p := nodes[i].Parent
		kids[p] = append(kids[p], int32(i))
	}
	return kids
}

func shapeOf(tr *Tree) treeShape {
	s := treeShape{nodes: map[string]string{}, paths: map[string]uint64{}, headers: map[int32]uint64{}}
	nodes := tr.arena.Nodes
	lists := childLists(nodes)
	for i := 1; i < len(nodes); i++ {
		kids := []int32{}
		for _, c := range lists[i] {
			kids = append(kids, nodes[c].Item)
		}
		s.nodes[fmt.Sprint(appendPath(nil, nodes, int32(i), nil))] = fmt.Sprint(math.Float64bits(nodes[i].Count), kids)
	}
	tr.ForEachPath(func(items []int32, w float64) {
		s.paths[fmt.Sprint(items)] = math.Float64bits(w)
	})
	for r, it := range tr.order {
		s.headers[it] = math.Float64bits(tr.arena.Headers[r].Count)
	}
	return s
}

// structureErr checks the arena wiring a rebuilt or merged tree must
// have: every node's parent ahead of it in the slab, no two children of
// a node carrying one item, childSums' reverse sweep equal bit for bit
// to a sum over each node's children in child order, the root-child
// table pointing at the root's child of each rank, and every header
// chain holding exactly the nodes of its item.
func structureErr(tr *Tree) string {
	nodes := tr.arena.Nodes
	for i := 1; i < len(nodes); i++ {
		if p := nodes[i].Parent; p < 0 || p >= int32(i) {
			return fmt.Sprintf("node %d: parent %d does not precede it", i, p)
		}
	}
	sums := tr.childSums()
	seen := map[int32]int32{}
	for i, kids := range childLists(nodes) {
		clear(seen)
		walk := 0.0
		for _, c := range kids {
			if d, ok := seen[nodes[c].Item]; ok {
				return fmt.Sprintf("node %d: children %d and %d both carry item %d", i, d, c, nodes[c].Item)
			}
			seen[nodes[c].Item] = c
			walk += nodes[c].Count
		}
		if math.Float64bits(walk) != math.Float64bits(sums[i]) {
			return fmt.Sprintf("node %d: child sum %v, sum over its children %v", i, sums[i], walk)
		}
	}
	perItem := map[int32]int{}
	for i := 1; i < len(nodes); i++ {
		perItem[nodes[i].Item]++
		if nodes[i].Parent == itemtree.NilIdx && tr.arena.RootChild[tr.rank[nodes[i].Item]] != int32(i) {
			return fmt.Sprintf("root child %d missing from the root-child table", i)
		}
	}
	for r, it := range tr.order {
		n := 0
		for c := tr.arena.Headers[r].Head; c != itemtree.NilIdx; c = nodes[c].Link {
			if nodes[c].Item != it {
				return fmt.Sprintf("chain of item %d holds node %d of item %d", it, c, nodes[c].Item)
			}
			n++
		}
		if n != perItem[it] {
			return fmt.Sprintf("chain of item %d has %d nodes, the slab %d", it, n, perItem[it])
		}
	}
	return ""
}

// sameRestructure runs Restructure on tr and restructureReplay on a
// clone of it and reports the first difference between the two, "" if
// there is none.
func sameRestructure(tr *Tree, items []int32, counts []float64, retain float64) string {
	ref := tr.Clone()
	ref.restructureReplay(items, counts, retain)
	tr.Restructure(items, counts, retain)
	if tr.NumNodes() != ref.NumNodes() {
		return fmt.Sprintf("%d nodes, replay %d", tr.NumNodes(), ref.NumNodes())
	}
	if !slices.Equal(tr.order, ref.order) || !slices.Equal(tr.rank, ref.rank) || !slices.Equal(tr.allowed, ref.allowed) || (tr.allowed == nil) != (ref.allowed == nil) {
		return fmt.Sprintf("order %v / allowed %v, replay %v / %v", tr.order, tr.allowed, ref.order, ref.allowed)
	}
	got, want := shapeOf(tr), shapeOf(ref)
	for k, w := range want.nodes {
		if g, ok := got.nodes[k]; !ok || g != w {
			return fmt.Sprintf("node %s: (count bits, children) %q, replay %q", k, g, w)
		}
	}
	if len(got.paths) != len(want.paths) {
		return fmt.Sprintf("%d paths, replay %d", len(got.paths), len(want.paths))
	}
	for k, w := range want.paths {
		if g, ok := got.paths[k]; !ok || g != w {
			return fmt.Sprintf("path %s: weight %v, replay %v", k, math.Float64frombits(g), math.Float64frombits(w))
		}
	}
	for it, w := range want.headers {
		if g := got.headers[it]; g != w {
			return fmt.Sprintf("header of item %d: %v, replay %v", it, math.Float64frombits(g), math.Float64frombits(w))
		}
	}
	return structureErr(tr)
}

// TestRebuildMatchesReplay is the per-call differential for the
// rebuild: random trees with non-dyadic weights (so every summation
// order shows in the bits) go through random restructures — M-CPS
// frequent sets with tied and untied counts, ids beyond the rank table,
// empty sets, keep-all on M-CPS and CPS trees, explicit sets on a CPS
// tree (whose unlisted items are ranked last, not pruned) — with
// inserts and merges between them, and every call must leave the tree
// the replay would leave, bit for bit.
func TestRebuildMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	for trial := 0; trial < 60; trial++ {
		universe := 4 + rng.IntN(40)
		tr := NewMCPS()
		if trial%4 == 3 {
			tr = NewCPS()
		}
		counts := map[int32]float64{}
		insert := func(n int) {
			for _, tx := range randomTxs(rng, n, universe, 6) {
				w := 0.1 + rng.Float64()
				tr.Insert(tx, w)
				for _, it := range tx {
					counts[it] += w
				}
			}
		}
		insert(50 + rng.IntN(400))
		for round := 0; round < 6; round++ {
			retain := []float64{1, 0.99, 0.5, 0.9}[rng.IntN(4)]
			var items []int32
			var cs []float64
			switch mode := rng.IntN(6); mode {
			case 0: // keep-all
			case 1: // empty frequent set
				items = []int32{}
			default: // a random frequent set, some ids never seen
				for it := int32(0); it < int32(universe+5); it++ {
					if rng.IntN(3) > 0 {
						items = append(items, it)
						c := counts[it]
						if mode == 2 {
							c = float64(rng.IntN(3)) // ties, broken by id
						}
						cs = append(cs, c)
					}
				}
				rng.Shuffle(len(items), func(i, j int) {
					items[i], items[j] = items[j], items[i]
					cs[i], cs[j] = cs[j], cs[i]
				})
			}
			if err := sameRestructure(tr, items, cs, retain); err != "" {
				t.Fatalf("trial %d round %d (trackAll %v, %d items): %s", trial, round, tr.trackAll, len(items), err)
			}
			insert(rng.IntN(200))
			if rng.IntN(4) == 0 {
				other := NewMCPS()
				for _, tx := range randomTxs(rng, 100, universe, 6) {
					other.Insert(tx, 0.1+rng.Float64())
				}
				m := tr.Clone()
				m.Merge(other)
				if err := structureErr(m); err != "" {
					t.Fatalf("trial %d round %d: after Merge: %s", trial, round, err)
				}
				tr = m
			}
		}
	}
}

// TestRebuildMatchesReplayOnCMT runs the differential on the shape the
// streaming engine restructures: an inlier-style tree over six-attribute
// CMT points, restructured the way explain.Streaming's decay tick does
// it, several ticks in a row.
func TestRebuildMatchesReplayOnCMT(t *testing.T) {
	pts := cmtPoints(t, 60_000)
	tr := NewMCPS()
	counts := map[int32]float64{}
	for i, p := range pts {
		tr.Insert(p.Attrs, 1)
		for _, a := range p.Attrs {
			counts[a]++
		}
		if (i+1)%15_000 != 0 {
			continue
		}
		var items []int32
		var cs []float64
		for it, c := range counts {
			counts[it] = c * 0.99
			if c >= 20 {
				items = append(items, it)
				cs = append(cs, c*0.99)
			}
		}
		if err := sameRestructure(tr, items, cs, 0.99); err != "" {
			t.Fatalf("tick at point %d (%d nodes): %s", i+1, tr.NumNodes(), err)
		}
	}
}

// cmtPoints generates n CMT points for the complex query (six
// attribute columns, cardinalities 40-5000).
func cmtPoints(tb testing.TB, n int) []core.Point {
	tb.Helper()
	ds, err := gen.DatasetByName("CMT")
	if err != nil {
		tb.Fatal(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Seed: 42})
	return pts
}

// TestResidueEndsNoTransaction builds the cancellation the terminal
// rule has to discount: transactions [1 2] and [1 3] only, with large
// non-dyadic weights, so node 1 ends nothing, yet its count and its
// children's counts round differently and count - childSum is well
// above the 1e-12 an absolute cut allowed. No path may end at node 1 —
// not in ForEachPath, not in the extraction Mine and Restructure read,
// and not after a Restructure, whose rebuilt counts carry residue of
// their own.
func TestResidueEndsNoTransaction(t *testing.T) {
	tr := NewMCPS()
	rng := rand.New(rand.NewPCG(7, 8))
	residue := 0.0
	for i := 0; i < 5000 && residue <= 1e-9; i++ {
		tr.Insert([]int32{1, 2 + int32(i%2)}, 1e3+rng.Float64())
		sums := tr.childSums()
		n := tr.arena.RootChild[tr.rank[1]]
		residue = tr.arena.Nodes[n].Count - sums[n]
	}
	if residue <= 1e-9 {
		t.Fatal("no cancellation residue above 1e-9 built; the test proves nothing")
	}
	check := func(when string) {
		t.Helper()
		n := 0
		tr.ForEachPath(func(items []int32, w float64) {
			if len(items) != 2 {
				t.Fatalf("%s: phantom path %v of weight %v (residue %v)", when, items, w, residue)
			}
			n++
		})
		if tr.extractPaths(nil); n != 2 || tr.numPaths() != 2 {
			t.Fatalf("%s: %d paths, %d extracted, want [1 2] and [1 3]", when, n, tr.numPaths())
		}
	}
	check("before Restructure")
	for i := 0; i < 3; i++ {
		tr.Restructure([]int32{1, 2, 3}, []float64{3, float64(i % 2), 1}, 0.99)
		if tr.NumNodes() != 3 {
			t.Fatalf("Restructure made %d nodes, want 3", tr.NumNodes())
		}
		check("after Restructure")
	}
}

// restore copies src's state into dst's existing buffers, so that a
// benchmark can restructure the same tree again and again without the
// copy allocating.
func restore(dst, src *Tree) {
	dst.order = append(dst.order[:0], src.order...)
	dst.rank = append(dst.rank[:0], src.rank...)
	dst.allowed = append(dst.allowed[:0], src.allowed...)
	dst.arena.Reset()
	dst.arena.Nodes = append(dst.arena.Nodes[:0], src.arena.Nodes...)
	dst.arena.Headers = append(dst.arena.Headers[:0], src.arena.Headers...)
	dst.arena.RootChild = append(dst.arena.RootChild[:0], src.arena.RootChild...)
}

// BenchmarkRestructure times one decay tick of an inlier-style M-CPS
// tree over six-attribute CMT points: decay, extract, re-rank and
// rebuild ("rebuild", through Restructure) or re-insert every path
// ("replay", through the test oracle), then the first insert of the
// next window. That insert is part of the tick's price: the rebuild
// leaves the child index to be rebuilt there, while the replay built
// it as it went. The tree is streamed the way explain.Streaming grows
// one — a tick every 100K points that keeps the items seen at least
// ten times in the window, ordered by their window counts — until it
// holds over 400K nodes; the timed tick is the next one, whose order
// differs from the tree's, as it does on every measured tick. Each
// iteration restores the grown tree first, outside the timer.
func BenchmarkRestructure(b *testing.B) {
	const window, minNodes = 100_000, 400_000
	pts := cmtPoints(b, 1_500_000)
	grown := NewMCPS()
	var items []int32
	var counts []float64
	win := map[int32]float64{}
	var probe []int32 // the timed tick's first insert
	for i, p := range pts {
		if i%window == 0 && i > 0 {
			items, counts = items[:0], counts[:0]
			for it, c := range win {
				if c >= 10 {
					items = append(items, it)
					counts = append(counts, c)
				}
			}
			clear(win)
			if grown.NumNodes() >= minNodes {
				// A transaction the tree keeps whole, so the insert
				// goes below the root and needs the child index.
				for _, it := range items {
					if len(probe) < 6 && slices.Contains(p.Attrs, it) {
						probe = append(probe, it)
					}
				}
				break
			}
			grown.Restructure(items, counts, 0.99)
		}
		grown.Insert(p.Attrs, 1)
		for _, a := range p.Attrs {
			win[a]++
		}
	}
	if grown.NumNodes() < minNodes || len(probe) < 2 {
		b.Fatalf("tree grew to %d nodes (want %d), probe %v", grown.NumNodes(), minNodes, probe)
	}
	for _, bc := range []struct {
		name string
		tick func(*Tree)
	}{
		{"rebuild", func(tr *Tree) { tr.Restructure(items, counts, 0.99); tr.Insert(probe, 1) }},
		{"replay", func(tr *Tree) { tr.restructureReplay(items, counts, 0.99); tr.Insert(probe, 1) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := grown.Clone()
			bc.tick(tr) // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore(tr, grown)
				b.StartTimer()
				bc.tick(tr)
			}
			b.ReportMetric(float64(grown.NumNodes()), "nodes")
		})
	}
}
