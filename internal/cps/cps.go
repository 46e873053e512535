// Package cps implements the streaming prefix trees behind MacroBase's
// streaming explanation: the M-CPS-tree (paper §5.3, Appendix B) — a
// frequency-descending prefix tree restricted to the currently
// AMC-frequent items, decayed and restructured at window boundaries —
// and the original CPS-tree (Tanbeer et al.) baseline, which stores a
// node for every item ever observed and which Appendix D measures to
// be on average 130x slower.
//
// The tree is flat: nodes live in a single arena slab (itemtree.Arena,
// each node naming its parent by int32 index) and the
// per-item rank, header, and allowed tables are dense slices indexed
// directly by attribute id. Attribute ids are dense by construction of
// encode.Encoder — that density is load-bearing; see the package
// documentation at the repository root. Negative ids are ignored.
// An insert costs one constant-time child lookup per item — a table
// read at the root, a hash probe into the arena's child index below it
// — whatever the fan-out, and so does the replay inside Merge.
// Restructure, the decay tick, looks nothing up: it rebuilds the slab
// from the tree's extracted transactions, splitting them on their item
// one depth at a time, and produces the counts the replay of those
// transactions would, bit for bit (see Restructure). Steady-state
// inserts and restructures touch no allocator: the arena grows only
// when a genuinely new prefix node appears, and all traversal scratch
// is owned by the tree and reused.
//
// A node ends transactions when its count exceeds its children's sum;
// one rule (endWeight) decides that for every reader of the paths —
// Restructure, Mine and ForEachPath — and it discounts cancellation
// residue relative to the node's count.
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
	// weight) extraction used by Restructure/Mine, and pathW first
	// holds every node's child sum (childSums); walkPath is the one
	// path ForEachPath (and so the read side of Merge) has in hand;
	// pathSlices re-slices pathItems for fptree.Build; query holds the
	// rank-sorted items of an ItemsetSupport call; countByID orders
	// restructures without a map; bucketAt and bucketRanks are the
	// rebuild's per-rank bucket cursors and the ranks of one bucket
	// pass.
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
	bucketAt    []int32
	bucketRanks []int32

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

// endEps is the cancellation residue allowed for: a node ends
// transactions only when its count exceeds the sum of its children's
// counts by more than endEps of the count itself. Counts are long float
// sums (inserts, decays, rebuilds), so a node that ends nothing still
// reads count - childSum some ulps of its count away from zero; the
// residue grows with the count, so the cut has to be relative. Residue
// stays near 1e-12 of the count and real terminal weights above 1e-6 of
// it (the root package documentation, "The decay tick"), so 1e-9 leaves
// three orders of magnitude either way.
const endEps = 1e-9

// endWeight is the one terminal-weight rule: the weight of the
// transactions that end at a node of the given count whose children's
// counts sum to childSum, or 0 when the difference is residue.
func endWeight(count, childSum float64) float64 {
	if term := count - childSum; term > endEps*count {
		return term
	}
	return 0
}

// childSums sweeps the slab once in reverse, adding every node's count
// to its parent's entry of t.pathW (len(Nodes) of them), and returns
// that slice. A node's children are the nodes naming it as parent, in
// descending index order (the itemtree package comment, "Child
// order"), so each entry sums the children in that order, latest
// created first.
func (t *Tree) childSums() []float64 {
	nodes := t.arena.Nodes
	sums := slices.Grow(t.pathW[:0], len(nodes))[:len(nodes)]
	clear(sums)
	for i := len(nodes) - 1; i > 0; i-- {
		sums[nodes[i].Parent] += nodes[i].Count
	}
	t.pathW = sums
	return sums
}

// appendPath appends the items on the path from the root down to node
// i, root first, keeping only the items keep names (dense by id; nil
// keeps every item).
func appendPath(dst []int32, nodes []itemtree.Node, i int32, keep []bool) []int32 {
	start := len(dst)
	for p := i; p != itemtree.NilIdx; p = nodes[p].Parent {
		if it := nodes[p].Item; keep == nil || (int(it) < len(keep) && keep[it]) {
			dst = append(dst, it)
		}
	}
	slices.Reverse(dst[start:])
	return dst
}

// extractPaths materializes ForEachPath's transactions as flattened
// (path, weight) records in the tree's reusable path buffers, for the
// callers that need them all at once (Restructure rebuilds the tree
// from them; Mine hands them to a two-pass FP-tree build). keep projects
// every path onto the items it names (nil keeps every item), and a path
// the projection empties is dropped; the others keep their weights and
// their node order. pathOffs carries len(paths)+1 offsets into
// pathItems; the weights overwrite the child sums they were computed
// from, which are read ahead of them.
func (t *Tree) extractPaths(keep []bool) {
	nodes := t.arena.Nodes
	sums := t.childSums()
	t.pathItems = t.pathItems[:0]
	t.pathOffs = append(t.pathOffs[:0], 0)
	n := 0
	for i := 1; i < len(nodes); i++ {
		w := endWeight(nodes[i].Count, sums[i])
		if w == 0 {
			continue
		}
		t.pathItems = appendPath(t.pathItems, nodes, int32(i), keep)
		if int(t.pathOffs[n]) == len(t.pathItems) {
			continue
		}
		t.pathOffs = append(t.pathOffs, int32(len(t.pathItems)))
		sums[n] = w
		n++
	}
	t.pathW = sums[:n]
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
//
// The tree is rebuilt, not replayed: its transactions are extracted,
// each is rewritten as the new ranks of the items it keeps, and the new
// slab is built top down by splitting the paths on their item at each
// depth (build). The result is the tree that re-inserting every
// extracted transaction in extraction order would give — the same
// (path, weight) multiset, node counts, header counts and order of
// each node's children, bit for bit, as the tests require of every
// call — except that nodes are numbered level by level instead of in
// insertion order, with no child-index probe per item. The next insert
// below the root rebuilds the child index.
func (t *Tree) Restructure(items []int32, counts []float64, retain float64) {
	// Decay in place first so extracted path weights are decayed.
	t.arena.Decay(retain)
	t.extractPaths(nil)
	t.stageOrder(items, counts)
	t.rankPaths()
	t.build()
}

// stageOrder installs the next window's order and insert filter (see
// Restructure) and truncates the arena to the root with one empty
// header per new rank. The extracted paths are left as they are.
func (t *Tree) stageOrder(items []int32, counts []float64) {
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
		// M-CPS: only the new frequent set is insertable. The rebuild
		// keeps exactly the ranked items, so pruned items vanish.
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
}

// rankPaths rewrites every extracted path in place as the ascending new
// ranks of the items Insert would keep — the staged ones, and for a
// CPS tree the others too, ranked last in the order Insert would meet
// them — drops the paths left empty, and adds each kept path's weight
// to its items' header counts, path by path in extraction order as
// Insert does. Items and offsets only ever move down, so the rewrite
// needs no second buffer.
func (t *Tree) rankPaths() {
	items, offs, w := t.pathItems, t.pathOffs, t.pathW
	kept, end := 0, int32(0)
	lo := offs[0]
	for i := range w {
		hi := offs[i+1]
		start := end
		for _, it := range items[lo:hi] {
			r := t.rank[it]
			if r < 0 {
				if !t.trackAll {
					continue // pruned
				}
				r = t.ensureItem(it)
			}
			items[end] = r
			end++
			t.arena.Headers[r].Count += w[i]
		}
		lo = hi
		if end == start {
			continue
		}
		for j := start + 1; j < end; j++ { // insertion sort: paths are short
			for k := j; k > start && items[k-1] > items[k]; k-- {
				items[k-1], items[k] = items[k], items[k-1]
			}
		}
		offs[kept+1] = end
		w[kept] = w[i]
		kept++
	}
	t.pathItems, t.pathOffs, t.pathW = items[:end], offs[:kept+1], w[:kept]
}

// build constructs the slab from the ranked paths one depth at a time.
// At each depth the paths that reach it are grouped by the node they
// hang from, and each group is split on the paths' rank there by a
// stable bucket pass that takes buckets in first-occurrence order
// (split); each bucket becomes one child whose count sums the bucket's
// weights in extraction order. That is the node, the count and the
// child creation order the replay's inserts produce: Insert would
// create that child at the bucket's first path and add the bucket's
// weights to it in the same order. Nodes are numbered level by level,
// so a node's children are adjacent and ascending in creation order
// (child order, descending index, is the replay's), and the shallow
// nodes every insert descends through sit together at the front of the
// slab, where the child index, rebuilt in slab order, also gives them
// their home slots.
//
// perm holds the paths that reach the current depth and par the node
// each hangs from, groups adjacent and in node order; keys is the
// bucket pass's scratch. All three live in the slab of the child
// index, which the build has no use for.
func (t *Tree) build() {
	n := int32(len(t.pathW))
	if n == 0 {
		return
	}
	scratch := t.arena.BorrowScratch(3 * int(n))
	perm, par, keys := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for i := range perm {
		perm[i], par[i] = int32(i), itemtree.NilIdx
	}
	for len(t.bucketAt) < len(t.order) {
		t.bucketAt = append(t.bucketAt, 0)
	}
	for depth := int32(0); n > 0; depth++ {
		next := int32(0)
		for lo := int32(0); lo < n; {
			hi := lo + 1
			for hi < n && par[hi] == par[lo] {
				hi++
			}
			next = t.split(perm, par, keys, lo, hi, depth, next)
			lo = hi
		}
		n = next
	}
}

// split creates the children of node par[lo] from its paths
// perm[lo:hi], which all reach depth: it groups them stably by their
// rank at depth, buckets in the order their ranks first occur, makes
// one child per bucket, and moves the paths that go on past that child
// to perm[next:], with the child in par, returning the new next. next
// never passes the entry being read, so the moves only overwrite
// entries already read. t.bucketAt is all zeros on entry and on return.
func (t *Tree) split(perm, par, keys []int32, lo, hi, depth, next int32) int32 {
	items, offs, w, at := t.pathItems, t.pathOffs, t.pathW, t.bucketAt
	parent := par[lo]
	ranks := t.bucketRanks[:0]
	for i := lo; i < hi; i++ {
		p := perm[i]
		o := offs[p]
		r := items[o+depth]
		if offs[p+1]-o == depth+1 {
			perm[i] = ^p // ends at the child
		}
		keys[i] = r
		if at[r] == 0 {
			ranks = append(ranks, r)
		}
		at[r]++
	}
	t.bucketRanks = ranks
	// at[r] becomes the end of r's bucket in bucketed.
	bucketed := perm[lo:hi]
	if len(ranks) == 1 {
		at[ranks[0]] = hi
	} else {
		// Scatter into par[lo:hi], free once parent is read.
		start := lo
		for _, r := range ranks {
			start, at[r] = start+at[r], start
		}
		for i := lo; i < hi; i++ {
			par[at[keys[i]]] = perm[i]
			at[keys[i]]++
		}
		bucketed = par[lo:hi]
	}
	start := int32(0)
	for _, r := range ranks {
		end := at[r] - lo
		at[r] = 0
		sum := 0.0
		for _, p := range bucketed[start:end] {
			sum += w[max(p, ^p)]
		}
		child := t.arena.AppendChild(parent, t.order[r], r, sum)
		for _, p := range bucketed[start:end] {
			if p >= 0 {
				perm[next], par[next] = p, child
				next++
			}
		}
		start = end
	}
	return next
}

// Mine replays the tree's weighted paths through an FP-tree and runs
// FPGrowth, returning the itemsets over the items keep names (dense by
// id; nil keeps every item) with decayed count >= minCount. Each path is
// projected onto keep as it is extracted, so the FP-tree is built from,
// and FPGrowth searches, only the kept items; a kept item's count in it
// is summed over the same paths, with the same weights and in the same
// order, as without the projection, while an itemset's count may be
// summed in another order. Mining is deterministic: two structurally
// identical trees mine bit-identical results for the same keep. The
// FP-tree and the miner's conditional-tree frames are pooled on the
// tree, so steady-state mines allocate only the returned itemsets.
func (t *Tree) Mine(minCount float64, keep []bool) []fptree.Itemset {
	t.extractPaths(keep)
	t.pathSlices = t.pathSlices[:0]
	for i := 0; i < t.numPaths(); i++ {
		t.pathSlices = append(t.pathSlices, t.path(i))
	}
	fptree.BuildInto(&t.mineTree, t.pathSlices, t.pathW, minCount)
	return t.mineTree.MineWith(&t.miner, minCount)
}

// ItemsetSupport returns the decayed weight of transactions containing
// every item in items, walking the node-links of the deepest-ranked
// member (the same itemtree.Arena.Support traversal fptree uses).
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
	sums := t.childSums()
	for i := 1; i < len(nodes); i++ {
		if w := endWeight(nodes[i].Count, sums[i]); w != 0 {
			t.walkPath = appendPath(t.walkPath[:0], nodes, int32(i), nil)
			f(t.walkPath, w)
		}
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
