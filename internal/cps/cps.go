// Package cps implements the streaming prefix trees behind MacroBase's
// streaming explanation: the M-CPS-tree (paper §5.3, Appendix B) — a
// frequency-descending prefix tree restricted to the currently
// AMC-frequent items, decayed and restructured at window boundaries —
// and the original CPS-tree (Tanbeer et al.) baseline, which stores a
// node for every item ever observed and which Appendix D measures to
// be on average 130x slower.
//
// The tree is flat: nodes live in a single arena slab (itemtree.Arena,
// first-child/next-sibling layout addressed by int32 indexes) and the
// per-item rank, header, and allowed tables are dense slices indexed
// directly by attribute id. Attribute ids are dense by construction of
// encode.Encoder — that density is load-bearing; see the package
// documentation at the repository root. Negative ids are ignored.
// An insert costs one constant-time child lookup per item — a table
// read at the root, a hash probe into the arena's child index below it
// — whatever the fan-out, and so do the replays inside Restructure and
// Merge. Steady-state inserts touch no allocator: the arena grows only
// when a genuinely new prefix node appears, and all traversal scratch
// is owned by the tree and reused.
//
// Because query-style methods (Mine, ItemsetSupport, ForEachPath, and
// the read side of Merge) also run over that reusable scratch, a Tree
// is not safe for concurrent use — not even for concurrent reads.
// Confine each tree to one goroutine or clone it (Clone is a slab
// memcpy — the child index is not copied, a clone that is inserted into
// rebuilds it — which is what the sharded engine's snapshot protocol
// does).
package cps

import (
	"slices"

	"macrobase/internal/fptree"
	"macrobase/internal/itemtree"
)

// Tree is a decayed, restructurable prefix tree of attribute
// transactions. With trackAll=false it behaves as the M-CPS-tree:
// inserts are restricted to the allowed (frequent) item set installed
// by the last Restructure. With trackAll=true it is the CPS-tree
// baseline: every item is inserted and none are pruned.
type Tree struct {
	trackAll bool
	arena    itemtree.Arena
	order    []int32 // rank -> item id (frequency-descending)
	rank     []int32 // item id -> rank, -1 when absent
	// allowed is the frequent-item filter for M-CPS inserts, dense by
	// id; nil accepts everything (always nil for CPS, and for M-CPS
	// before the first window boundary and after keep-all
	// restructures).
	allowed []bool

	// Reusable scratch. itemScratch holds the filtered, rank-sorted
	// transaction during Insert; path* hold the flattened (path,
	// weight) extraction used by Restructure/Mine; walkPath is the one
	// path ForEachPath (and so the read side of Merge) has in hand;
	// pathSlices re-slices pathItems for fptree.Build; query holds the
	// rank-sorted items of an ItemsetSupport call; countByID orders
	// restructures without a map.
	itemScratch []int32
	walkPath    []int32
	pathItems   []int32
	pathOffs    []int32 // len(paths)+1 offsets into pathItems
	pathW       []float64
	pathSlices  [][]int32
	query       []int32
	countByID   []float64
	freqItems   []int32 // keep-all restructure staging
	freqCounts  []float64

	// Reusable mining state: Mine replays the tree's paths into mineTree
	// (rebuilt in place) and runs FPGrowth through miner, so steady-state
	// mines allocate only their output itemsets. Clone deliberately does
	// not copy these — they are scratch, not state.
	mineTree fptree.Tree
	miner    fptree.Miner
}

// NewMCPS returns an M-CPS-tree.
func NewMCPS() *Tree { return newTree(false) }

// NewCPS returns a CPS-tree baseline.
func NewCPS() *Tree { return newTree(true) }

func newTree(trackAll bool) *Tree {
	t := &Tree{trackAll: trackAll}
	t.arena.Init()
	return t
}

// rankOf returns the item's rank or -1.
func (t *Tree) rankOf(it int32) int32 {
	if it < 0 || int(it) >= len(t.rank) {
		return -1
	}
	return t.rank[it]
}

// ensureItem registers it (appending it to the current order, where it
// sorts last until the next restructure) and returns its rank.
func (t *Tree) ensureItem(it int32) int32 {
	if r := t.rankOf(it); r >= 0 {
		return r
	}
	for int(it) >= len(t.rank) {
		t.rank = append(t.rank, -1)
	}
	r := int32(len(t.order))
	t.rank[it] = r
	t.order = append(t.order, it)
	t.arena.AddRank(itemtree.Header{})
	return r
}

// Insert adds one transaction of distinct attribute ids with weight w.
// Items outside the allowed set are dropped (M-CPS); unseen items are
// appended to the current order (they sort last until the next
// restructure). Negative ids are ignored.
func (t *Tree) Insert(attrs []int32, w float64) {
	items := t.itemScratch[:0]
	for _, it := range attrs {
		if it < 0 {
			continue
		}
		if t.allowed != nil && (int(it) >= len(t.allowed) || !t.allowed[it]) {
			continue
		}
		items = append(items, it)
	}
	t.itemScratch = items
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		t.ensureItem(it)
	}
	itemtree.SortByRank(items, t.rank)
	t.arena.InsertSorted(items, t.rank, w)
	for _, it := range items {
		t.arena.Headers[t.rank[it]].Count += w
	}
}

// ItemCount returns the decayed weight of transactions containing
// item.
func (t *Tree) ItemCount(item int32) float64 {
	r := t.rankOf(item)
	if r < 0 {
		return 0
	}
	return t.arena.Headers[r].Count
}

// NumItems reports how many distinct items the tree currently stores.
func (t *Tree) NumItems() int { return len(t.order) }

// NumNodes reports the number of tree nodes (excluding the root).
func (t *Tree) NumNodes() int { return t.arena.NumNodes() }

// pathEps is the terminal weight below which a node ends no
// transaction (float residue of decayed counts).
const pathEps = 1e-12

// terminalWeight returns the weight of the transactions that end at
// node i: a node whose count exceeds the sum of its children's counts
// (taken in sibling-list order) terminates that many transactions.
func terminalWeight(nodes []itemtree.Node, i int32) float64 {
	childSum := 0.0
	for c := nodes[i].First; c != itemtree.NilIdx; c = nodes[c].Next {
		childSum += nodes[c].Count
	}
	return nodes[i].Count - childSum
}

// appendPath appends the items on the path from the root down to node
// i, root first.
func appendPath(dst []int32, nodes []itemtree.Node, i int32) []int32 {
	start := len(dst)
	for p := i; p != itemtree.NilIdx; p = nodes[p].Parent {
		dst = append(dst, nodes[p].Item)
	}
	slices.Reverse(dst[start:])
	return dst
}

// extractPaths materializes ForEachPath's transactions as flattened
// (path, weight) records in the tree's reusable path buffers, for the
// callers that need them all at once (Restructure resets the tree
// before replaying them; Mine hands them to a two-pass FP-tree build).
// pathOffs carries len(paths)+1 offsets into pathItems.
func (t *Tree) extractPaths() {
	t.pathItems = t.pathItems[:0]
	t.pathOffs = append(t.pathOffs[:0], 0)
	t.pathW = t.pathW[:0]
	t.ForEachPath(func(items []int32, w float64) {
		t.pathItems = append(t.pathItems, items...)
		t.pathOffs = append(t.pathOffs, int32(len(t.pathItems)))
		t.pathW = append(t.pathW, w)
	})
}

// numPaths returns the number of extracted paths.
func (t *Tree) numPaths() int { return len(t.pathW) }

// path returns the i'th extracted path (valid until the next
// extraction or structural change).
func (t *Tree) path(i int) []int32 {
	return t.pathItems[t.pathOffs[i]:t.pathOffs[i+1]]
}

// Restructure performs the window-boundary maintenance of the
// M-CPS-tree (paper Appendix B): decay every count by retain, drop
// items no longer frequent, and re-sort the tree into the new
// frequency-descending order. items/counts are parallel slices naming
// the next window's allowed items (distinct, non-negative ids) and the
// (sketch) counts that define the new order; a nil items slice keeps
// every currently stored item (the CPS-tree baseline, which re-sorts by
// its own decayed counts and prunes nothing) and clears any M-CPS
// insert filter. Steady-state restructures reuse the tree's scratch
// and allocate nothing.
func (t *Tree) Restructure(items []int32, counts []float64, retain float64) {
	// Decay in place first so extracted path weights are decayed.
	t.arena.Decay(retain)
	t.extractPaths()

	keepAll := items == nil
	if keepAll {
		// Keep-all: order by the tree's own decayed header counts.
		t.freqItems = append(t.freqItems[:0], t.order...)
		t.freqCounts = t.freqCounts[:0]
		for r := range t.order {
			t.freqCounts = append(t.freqCounts, t.arena.Headers[r].Count)
		}
		items, counts = t.freqItems, t.freqCounts
	}

	// Reset structure: clear old ranks, truncate the arena to the root.
	for _, it := range t.order {
		t.rank[it] = -1
	}
	t.arena.Reset()
	t.order = t.order[:0]

	// Stage the new order: countByID carries each item's ordering key
	// so the sort needs no map; rank doubles as a presence marker to
	// drop duplicate items defensively.
	for i, it := range items {
		if it < 0 {
			continue
		}
		for int(it) >= len(t.rank) {
			t.rank = append(t.rank, -1)
		}
		for int(it) >= len(t.countByID) {
			t.countByID = append(t.countByID, 0)
		}
		if t.rank[it] != -1 {
			continue // duplicate
		}
		t.rank[it] = 0 // presence marker, overwritten below
		t.countByID[it] = counts[i]
		t.order = append(t.order, it)
	}
	byID := t.countByID
	slices.SortFunc(t.order, func(a, b int32) int {
		ca, cb := byID[a], byID[b]
		switch {
		case ca > cb:
			return -1
		case ca < cb:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	for i, it := range t.order {
		t.rank[it] = int32(i)
		t.arena.AddRank(itemtree.Header{})
	}

	if t.trackAll || keepAll {
		// CPS never filters; a keep-all restructure of an M-CPS tree
		// likewise leaves the tree open to genuinely new items (the
		// filter returns with the next explicit frequent set).
		t.allowed = nil
	} else {
		// M-CPS: only the new frequent set is insertable. The filter
		// also restricts the rebuild below, so pruned items vanish.
		t.allowed = t.allowed[:0]
		for len(t.allowed) < len(t.rank) {
			t.allowed = append(t.allowed, false)
		}
		if t.allowed == nil {
			// An empty frequent set over a tree with an empty rank
			// table must still close the filter: a nil slice means
			// accept-everything, which would let the next window's
			// inserts bypass the (empty) frequent set. Caught by the
			// FuzzTreeOps corpus.
			t.allowed = make([]bool, 0, 8)
		}
		for _, it := range t.order {
			t.allowed[it] = true
		}
	}

	// Re-insert extracted transactions under the new order; items
	// outside the new set are dropped by Insert's filter.
	for i := 0; i < t.numPaths(); i++ {
		t.Insert(t.path(i), t.pathW[i])
	}
}

// Mine replays the tree's weighted paths through an FP-tree and runs
// FPGrowth, returning itemsets with decayed count >= minCount. Mining
// is deterministic: two structurally identical trees mine bit-identical
// results. The FP-tree and the miner's conditional-tree frames are
// pooled on the tree, so steady-state mines allocate only the returned
// itemsets.
func (t *Tree) Mine(minCount float64, maxItems int) []fptree.Itemset {
	t.extractPaths()
	t.pathSlices = t.pathSlices[:0]
	for i := 0; i < t.numPaths(); i++ {
		t.pathSlices = append(t.pathSlices, t.path(i))
	}
	fptree.BuildInto(&t.mineTree, t.pathSlices, t.pathW, minCount)
	return t.mineTree.MineWith(&t.miner, minCount, maxItems)
}

// ItemsetSupport returns the decayed weight of transactions containing
// every item in items, walking the node-links of the deepest-ranked
// member (the same itemtree.Support traversal fptree uses).
func (t *Tree) ItemsetSupport(items []int32) float64 {
	if len(items) == 0 {
		return 0
	}
	q := append(t.query[:0], items...)
	t.query = q
	for _, it := range q {
		if t.rankOf(it) < 0 {
			return 0
		}
	}
	itemtree.SortByRankDesc(q, t.rank)
	return t.arena.Support(q, t.rank)
}

// ForEachPath visits the tree's stored transactions as (items, weight)
// pairs in node order, the export half of tree merging: replaying every
// visited path into an empty tree reproduces this tree's counts. Paths
// are streamed through one path-sized buffer rather than materialized —
// a merged poll reads each source snapshot exactly once, and a full
// path set is about as large as the node slab itself. The items slice
// is only valid for the duration of the call.
func (t *Tree) ForEachPath(f func(items []int32, weight float64)) {
	nodes := t.arena.Nodes
	for i := int32(1); int(i) < len(nodes); i++ {
		term := terminalWeight(nodes, i)
		if term <= pathEps {
			continue
		}
		t.walkPath = appendPath(t.walkPath[:0], nodes, i)
		f(t.walkPath, term)
	}
}

// Merge folds src's transactions into t, the shard-reconciliation
// operation of the sharded streaming engine: each shard grows its own
// tree over its hash partition and the merge stage unions the outlier
// trees (inlier trees only for a writer; polls count on them in place).
// The merge is lossless — src's items bypass t's allowed filter, since
// each shard's frequent set legitimately differs — and the allowed
// sets union: an item frequent on either shard stays insertable.
func (t *Tree) Merge(src *Tree) {
	if t.allowed != nil {
		if src.allowed == nil {
			t.allowed = nil
		} else {
			for len(t.allowed) < len(src.allowed) {
				t.allowed = append(t.allowed, false)
			}
			for it, ok := range src.allowed {
				if ok {
					t.allowed[it] = true
				}
			}
		}
	}
	saved := t.allowed
	t.allowed = nil
	// t is usually a Clone, whose slab has no spare capacity: reserve
	// once for the most nodes the replay can add instead of regrowing
	// (and abandoning) the slab log(n) times.
	t.arena.Reserve(src.NumNodes())
	src.ForEachPath(func(items []int32, w float64) {
		t.Insert(items, w)
	})
	t.allowed = saved
}

// Clone returns a deep copy of the tree: with the arena layout this is
// a handful of slab copies — no path replay — so the sharded engine's
// per-poll snapshots cost a memcpy, not a rebuild. Counts, item order
// and node identity are preserved exactly; mining scratch is not
// copied (the clone grows its own on first Mine).
func (t *Tree) Clone() *Tree {
	c := &Tree{
		trackAll: t.trackAll,
		order:    slices.Clone(t.order),
		rank:     slices.Clone(t.rank),
		allowed:  slices.Clone(t.allowed),
	}
	t.arena.CloneInto(&c.arena)
	return c
}
