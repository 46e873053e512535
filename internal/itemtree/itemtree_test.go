package itemtree

import (
	"testing"
	"unsafe"
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

// TestNodeLayout pins a tree node at 24 bytes: Count, Item, Parent and
// Link, nothing else. Every node of every session's trees pays for each
// field, and every poll's snapshot copies it, so a field added back to
// Node has to be worth that — raise this bound with it on purpose.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 24 {
		t.Fatalf("itemtree.Node is %d bytes, want 24 (Count, Item, Parent, Link): a new field costs every tree node of every session and every snapshot copy, so it must be a deliberate choice that raises this bound", got)
	}
}
