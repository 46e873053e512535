// Package fptree implements the FP-tree and the FPGrowth
// frequent-itemset miner (Han et al.), the pattern-mining backbone of
// MacroBase's explanation stage (paper §5.2). Counts are float64 so
// the same miner serves both raw batch counts and exponentially
// decayed streaming counts, and transactions are weighted so the
// M-CPS-tree can be mined by replaying its prefix paths.
//
// Like the cps package, the tree is flat (itemtree.Arena): nodes live
// in one slab addressed by int32 indexes and the per-item tables are
// dense slices. The top-level tree is indexed directly by attribute id
// (dense by construction of encode.Encoder; negative ids are ignored).
// Conditional trees built during mining live in the parent tree's rank
// space — token domains shrink at every recursion level, so a
// conditional tree's tables are proportional to its parent's item
// count, never to the global id universe.
//
// Building costs one constant-time child lookup per inserted item (the
// arena's root table and child index), for the top-level tree and for
// every conditional tree alike. Trees and miners are reusable:
// BuildInto rebuilds a tree in place on its previous slabs, and
// MineWith threads a Miner whose per-depth conditional-tree frames
// recycle their arenas — node slab and child-index slab — across calls,
// each rebuild starting from an index sized for that conditional tree,
// so a steady-state mine allocates only its output itemsets. A Tree or
// Miner is not safe for concurrent use.
package fptree

import (
	"slices"

	"macrobase/internal/itemtree"
)

// Itemset is a mined frequent itemset: items sorted ascending by id
// and the (possibly decayed) number of transactions containing them.
type Itemset struct {
	Items []int32
	Count float64
}

// Tree is a frequency-descending prefix tree of transactions.
type Tree struct {
	arena itemtree.Arena
	order []int32 // rank -> token, most frequent first
	rank  []int32 // token -> rank, -1 absent
	// labels maps token -> global attribute id; nil means tokens are
	// ids (every Build-constructed tree). Conditional trees share
	// their parent's rank-to-id table here.
	labels []int32

	// Reusable scratch: ids is the lazily built rank -> id table shared
	// with conditionals (idsValid marks it current for this build);
	// buildCounts stages per-token totals during (re)builds; pathBuf
	// holds prefix paths replayed into conditionals.
	ids         []int32
	idsValid    bool
	buildCounts []float64
	pathBuf     []int32
	scratch     []int32
}

// Miner owns the conditional FP-trees built during mining, one
// reusable frame per recursion depth, so repeated mines recycle their
// arena slabs instead of rebuilding them from the allocator. The
// zero value is ready to use.
type Miner struct {
	frames []*Tree
	// out stages the patterns of one mine (see MineWith); the capacity
	// is recycled, the contents are not.
	out []Itemset
}

// frame returns the reusable conditional tree for recursion depth d.
// A frame is reused serially: at any moment each depth hosts at most
// one live conditional (the one on the current recursion path).
func (m *Miner) frame(d int) *Tree {
	for d >= len(m.frames) {
		m.frames = append(m.frames, &Tree{})
	}
	return m.frames[d]
}

// idOf translates a token to its global attribute id.
func (t *Tree) idOf(tok int32) int32 {
	if t.labels == nil {
		return tok
	}
	return t.labels[tok]
}

// Build constructs an FP-tree over the weighted transactions,
// discarding items whose total weight is below minCount. weights may
// be nil (all transactions count 1). Items within a transaction must
// be distinct; order is irrelevant. Negative ids are ignored.
func Build(txs [][]int32, weights []float64, minCount float64) *Tree {
	t := &Tree{}
	BuildInto(t, txs, weights, minCount)
	return t
}

// BuildInto is Build reusing t's storage: the arena slabs, rank
// tables, and scratch of a previously built tree are recycled, so a
// steady-state rebuild (the M-CPS-tree's per-mine replay) touches the
// allocator only to grow capacity.
func BuildInto(t *Tree, txs [][]int32, weights []float64, minCount float64) {
	counts := t.buildCounts[:0]
	for ti, tx := range txs {
		w := 1.0
		if weights != nil {
			w = weights[ti]
		}
		for _, it := range tx {
			if it < 0 {
				continue
			}
			for int(it) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[it] += w
		}
	}
	t.buildCounts = counts
	t.init(counts, minCount, nil)
	for ti, tx := range txs {
		w := 1.0
		if weights != nil {
			w = weights[ti]
		}
		t.Insert(tx, w)
	}
}

// init prepares the tree (in place, reusing prior storage) with the
// frequency-descending order of counts (a dense token-indexed table),
// restricted to tokens with count >= minCount. labels, when non-nil,
// maps tokens to global ids for itemset output.
func (t *Tree) init(counts []float64, minCount float64, labels []int32) {
	t.labels = labels
	t.idsValid = false
	t.arena.Reset()
	t.order = t.order[:0]
	for tok, c := range counts {
		if c >= minCount && c > 0 {
			t.order = append(t.order, int32(tok))
		}
	}
	slices.SortFunc(t.order, func(a, b int32) int {
		ca, cb := counts[a], counts[b]
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
	t.rank = t.rank[:0]
	for range counts {
		t.rank = append(t.rank, -1)
	}
	for i, tok := range t.order {
		t.rank[tok] = int32(i)
		t.arena.AddRank(itemtree.Header{Count: counts[tok]})
	}
}

// rankOf returns the token's rank or -1.
func (t *Tree) rankOf(tok int32) int32 {
	if tok < 0 || int(tok) >= len(t.rank) {
		return -1
	}
	return t.rank[tok]
}

// Insert adds one weighted transaction, keeping only items frequent at
// build time and sorting them into the tree's canonical order.
func (t *Tree) Insert(tx []int32, w float64) {
	items := t.scratch[:0]
	for _, it := range tx {
		if t.rankOf(it) >= 0 {
			items = append(items, it)
		}
	}
	t.scratch = items
	if len(items) == 0 {
		return
	}
	itemtree.SortByRank(items, t.rank)
	t.arena.InsertSorted(items, t.rank, w)
}

// ItemCount returns the total weight of item across all transactions
// inserted so far (0 for items pruned at build time). Header counts
// are fixed at build time; the chain walk reports live values for
// incrementally grown trees.
func (t *Tree) ItemCount(item int32) float64 {
	r := t.rankOf(item)
	if r < 0 {
		return 0
	}
	return t.arena.ChainCount(r)
}

// Items returns the frequent items in frequency-descending order.
// Valid only on Build-constructed trees (token space = ids).
func (t *Tree) Items() []int32 { return t.order }

// Mine runs FPGrowth and returns every itemset with weight >=
// minCount. maxItems, when positive, bounds the itemset size.
// The output includes singleton itemsets.
func (t *Tree) Mine(minCount float64, maxItems int) []Itemset {
	return t.MineWith(&Miner{}, minCount, maxItems)
}

// MineWith is Mine with a caller-owned Miner: the conditional trees
// built during the FPGrowth recursion reuse the miner's per-depth
// arena frames, and the patterns are staged in the miner's recycled
// output buffer, so repeated mines (the streaming explainer's poll
// path) allocate only the returned itemsets. Patterns come out grouped
// by the top-level item they end in, least frequent item first, each
// itemset canonically sorted (slices.Sort keeps that allocation-free;
// a sort.Slice closure would allocate once per set).
func (t *Tree) MineWith(m *Miner, minCount float64, maxItems int) []Itemset {
	m.out = m.out[:0]
	t.mine(m, 0, minCount, maxItems, nil)
	for i := range m.out {
		slices.Sort(m.out[i].Items)
	}
	out := append(make([]Itemset, 0, len(m.out)), m.out...)
	clear(m.out) // the stage must not pin the caller's itemsets
	return out
}

// mine recursively grows patterns ending in each item of a conditional
// tree, least frequent first, into m.out. suffix carries global ids;
// depth indexes the miner's conditional-tree frames.
func (t *Tree) mine(m *Miner, depth int, minCount float64, maxItems int, suffix []int32) {
	for i := len(t.order) - 1; i >= 0; i-- {
		tok := t.order[i]
		total := t.arena.ChainCount(int32(i))
		if total < minCount {
			continue
		}
		items := make([]int32, 0, len(suffix)+1)
		items = append(items, t.idOf(tok))
		items = append(items, suffix...)
		m.out = append(m.out, Itemset{Items: items, Count: total})
		if maxItems > 0 && len(items) >= maxItems {
			continue
		}
		cond := m.frame(depth)
		t.conditionalInto(cond, int32(i), minCount)
		if len(cond.order) > 0 {
			cond.mine(m, depth+1, minCount, maxItems, items)
		}
	}
}

// idByRank materializes the rank -> global id table handed to
// conditional trees as their label mapping. The table is immutable for
// the lifetime of one build, so it is computed once and shared by
// every conditional; the backing buffer is recycled across rebuilds.
func (t *Tree) idByRank() []int32 {
	if !t.idsValid {
		t.ids = t.ids[:0]
		for _, tok := range t.order {
			t.ids = append(t.ids, t.idOf(tok))
		}
		t.idsValid = true
	}
	return t.ids
}

// conditionalInto builds the conditional FP-tree for the item at rank
// r into dst (reusing dst's storage): the prefix paths of every node
// carrying the item, weighted by that node's count. The conditional
// tree's tokens are this tree's ranks — a dense domain of size
// len(t.order) — so its tables stay proportional to the parent's item
// count regardless of the global id universe.
func (t *Tree) conditionalInto(dst *Tree, r int32, minCount float64) {
	nodes := t.arena.Nodes
	counts := dst.buildCounts[:0]
	for range t.order {
		counts = append(counts, 0)
	}
	dst.buildCounts = counts
	for n := t.arena.Headers[r].Head; n != itemtree.NilIdx; n = nodes[n].Link {
		w := nodes[n].Count
		for p := nodes[n].Parent; p != itemtree.NilIdx; p = nodes[p].Parent {
			counts[t.rank[nodes[p].Item]] += w
		}
	}
	dst.init(counts, minCount, t.idByRank())
	if len(dst.order) == 0 {
		return
	}
	path := dst.pathBuf[:0]
	for n := t.arena.Headers[r].Head; n != itemtree.NilIdx; n = nodes[n].Link {
		path = path[:0]
		for p := nodes[n].Parent; p != itemtree.NilIdx; p = nodes[p].Parent {
			path = append(path, t.rank[nodes[p].Item])
		}
		if len(path) > 0 {
			dst.Insert(path, nodes[n].Count)
		}
	}
	dst.pathBuf = path
}

// ItemsetSupport returns the total weight of transactions containing
// every item in items, by walking the node-link chain of the rarest
// (deepest-ranked) member and matching the remaining items along each
// prefix path. MacroBase uses this to count outlier-derived candidate
// combinations over the inliers without mining the inlier tree
// (paper §5.2, Algorithm 2 step 3).
func (t *Tree) ItemsetSupport(items []int32) float64 {
	if len(items) == 0 {
		return 0
	}
	q := append(t.scratch[:0], items...)
	t.scratch = q
	for _, it := range q {
		if t.rankOf(it) < 0 {
			return 0
		}
	}
	itemtree.SortByRankDesc(q, t.rank)
	return t.arena.Support(q, t.rank)
}

// NumNodes reports the number of tree nodes (excluding the root),
// used by memory accounting tests.
func (t *Tree) NumNodes() int { return t.arena.NumNodes() }
