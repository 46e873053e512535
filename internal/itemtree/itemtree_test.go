package itemtree

import (
	"fmt"
	"testing"
)

// The arena core is exercised end-to-end by the cps and fptree suites
// (equivalence against brute force, goldens); these tests pin the
// structural primitives in isolation.

func buildArena(t *testing.T, rank []int32, txs [][]int32) *Arena {
	t.Helper()
	var a Arena
	a.Init()
	ranks := 0
	for _, r := range rank {
		if int(r)+1 > ranks {
			ranks = int(r) + 1
		}
	}
	for i := 0; i < ranks; i++ {
		a.AddRank(Header{})
	}
	for _, tx := range txs {
		cp := append([]int32(nil), tx...)
		SortByRank(cp, rank)
		a.InsertSorted(cp, rank, 1)
	}
	return &a
}

func TestSortByRank(t *testing.T) {
	rank := []int32{2, 0, 1}
	items := []int32{0, 1, 2}
	SortByRank(items, rank)
	if items[0] != 1 || items[1] != 2 || items[2] != 0 {
		t.Fatalf("SortByRank = %v, want [1 2 0]", items)
	}
	SortByRankDesc(items, rank)
	if items[0] != 0 || items[1] != 2 || items[2] != 1 {
		t.Fatalf("SortByRankDesc = %v, want [0 2 1]", items)
	}
}

func TestInsertSharesPrefixes(t *testing.T) {
	rank := []int32{0, 1, 2}
	a := buildArena(t, rank, [][]int32{{0, 1}, {0, 1}, {0, 2}})
	if got := a.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d, want 3 (shared prefix)", got)
	}
	if got := a.ChainCount(0); got != 3 {
		t.Fatalf("ChainCount(rank 0) = %v, want 3", got)
	}
	q := []int32{0, 1}
	SortByRankDesc(q, rank)
	if got := a.Support(q, rank); got != 2 {
		t.Fatalf("Support({0,1}) = %v, want 2", got)
	}
}

func TestDecayAndCloneAndReset(t *testing.T) {
	rank := []int32{0, 1}
	a := buildArena(t, rank, [][]int32{{0, 1}, {0}})
	a.Headers[0].Count = 2
	a.Headers[1].Count = 1
	var c Arena
	a.CloneInto(&c)
	a.Decay(0.5)
	if got := a.ChainCount(0); got != 1 {
		t.Fatalf("decayed ChainCount = %v, want 1", got)
	}
	if got := a.Headers[0].Count; got != 1 {
		t.Fatalf("decayed header = %v, want 1", got)
	}
	if got := c.ChainCount(0); got != 2 {
		t.Fatalf("clone decayed with original: %v, want 2", got)
	}
	a.Reset()
	if a.NumNodes() != 0 || len(a.Headers) != 0 || len(a.RootChild) != 0 {
		t.Fatal("Reset left structure behind")
	}
	if c.NumNodes() == 0 {
		t.Fatal("Reset clobbered the clone")
	}
}

// siblingOrderErr reports the first sibling list that does not run
// strictly descending by index, the order the package comment
// promises owners ("Sibling order").
func siblingOrderErr(a *Arena) string {
	for i := range a.Nodes {
		prev := int32(len(a.Nodes))
		for c := a.Nodes[i].First; c != NilIdx; c = a.Nodes[c].Next {
			if c >= prev {
				return fmt.Sprintf("node %d: child %d follows %d", i, c, prev)
			}
			if a.Nodes[c].Parent != int32(i) {
				return fmt.Sprintf("node %d lists child %d whose parent is %d", i, c, a.Nodes[c].Parent)
			}
			prev = c
		}
	}
	return ""
}

// TestSiblingListsDescend: the sibling lists of a benchmark-shaped tree
// run strictly descending by index after InsertSorted, in a CloneInto
// copy, after inserts into that copy (which rebuild its index), and in
// a tree built with AppendChild. cps checks the same after Merge and
// Restructure.
func TestSiblingListsDescend(t *testing.T) {
	g := newTxGen(21, true)
	var a Arena
	a.Init()
	g.addRanks(&a)
	var tx []int32
	for i := 0; i < 20000; i++ {
		tx = g.next(tx)
		a.InsertSorted(tx, g.rank, 1)
	}
	if err := siblingOrderErr(&a); err != "" {
		t.Fatal("after InsertSorted:", err)
	}
	var c Arena
	a.CloneInto(&c)
	if err := siblingOrderErr(&c); err != "" {
		t.Fatal("after CloneInto:", err)
	}
	for i := 0; i < 5000; i++ {
		tx = g.next(tx)
		c.InsertSorted(tx, g.rank, 1)
	}
	if err := siblingOrderErr(&c); err != "" {
		t.Fatal("after inserts into a clone:", err)
	}

	// AppendChild: copy a's tree breadth first, so that a node's
	// children are appended long after the node itself.
	var b Arena
	b.Init()
	g.addRanks(&b)
	queue := []struct{ from, to int32 }{{NilIdx, NilIdx}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		var kids []int32
		for k := a.Nodes[q.from].First; k != NilIdx; k = a.Nodes[k].Next {
			kids = append(kids, k)
		}
		for j := len(kids) - 1; j >= 0; j-- { // creation order
			n := a.Nodes[kids[j]]
			queue = append(queue, struct{ from, to int32 }{kids[j], b.AppendChild(q.to, n.Item, g.rank[n.Item], n.Count)})
		}
	}
	if b.NumNodes() != a.NumNodes() {
		t.Fatalf("AppendChild copy has %d nodes, want %d", b.NumNodes(), a.NumNodes())
	}
	if err := siblingOrderErr(&b); err != "" {
		t.Fatal("after AppendChild:", err)
	}
	for r := range a.Headers {
		if got, want := b.ChainCount(int32(r)), a.ChainCount(int32(r)); got != want {
			t.Fatalf("rank %d: AppendChild chain sums %v, InsertSorted %v", r, got, want)
		}
	}
	// The copy takes inserts like any tree: its index is built lazily.
	for i := 0; i < 1000; i++ {
		tx = g.next(tx)
		a.InsertSorted(tx, g.rank, 1)
		b.InsertSorted(tx, g.rank, 1)
	}
	if b.NumNodes() != a.NumNodes() || siblingOrderErr(&b) != "" {
		t.Fatalf("inserts after AppendChild: %d nodes (want %d), %s", b.NumNodes(), a.NumNodes(), siblingOrderErr(&b))
	}
}
