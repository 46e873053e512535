// Package itemtree is the shared flat-arena core of MacroBase's two
// prefix trees (internal/cps, internal/fptree): a contiguous node slab
// addressed by int32 indexes, each node naming its parent, with
// per-rank header chains for node-link traversals and O(1) child lookup
// at every level. The packages on top own item semantics (what a token
// means, how ranks are assigned, when headers accumulate); this package
// owns the structural invariants, so a layout fix lands in exactly one
// place.
//
// # Child lookup
//
// An insert descends one level per item and has to find, at each level,
// the child of the current node that carries the item. Where the
// fan-out is depends on the query: with one attribute every node is a
// child of the root, with six attributes of cardinality 40-5000 the
// nodes at depth two and three have thousands of siblings. Both ends
// are constant time:
//
//   - The root's children are found through RootChild, a dense table
//     indexed by rank. A one-attribute tree uses nothing else and never
//     hashes.
//   - Every other node is found through the child index, an
//     open-addressed hash table from (parent index, item) to child index
//     kept in one flat []int32. A slot stores only the child's arena
//     index; the key is read back from Nodes[child].Parent and .Item,
//     so the table costs 4 bytes a slot at 3/8 to 3/4 occupancy. Nodes
//     are never removed one at a time — the slab is only appended to, or
//     truncated wholesale by Reset — so linear probing needs no
//     tombstones, and growth is a rehash of Nodes into a table twice the
//     size.
//
// The index is scratch, not state. It is derived entirely from Nodes,
// CloneInto does not copy it (and drops the target's), and Reset
// shrinks it to the empty table in O(1) while keeping the slab;
// InsertSorted rebuilds it — sized for the nodes then present — the
// first time it goes below a root child in an arena that has none. A
// per-poll snapshot clone that is only read therefore stays a memcpy of
// the three state slabs, a clone that is merged into builds its own
// index once, and the thousands of small conditional FP-trees of a mine
// each start from a table that fits them, whatever the frame held
// before. Steady-state Reset-and-rebuild cycles allocate nothing. An
// owner that rebuilds a whole tree with AppendChild, which needs no
// index, may borrow the kept slab as working space (BorrowScratch).
//
// A (parent, item) pair names at most one node, so the lookup returns
// the one child any search would find, and node creation order and
// header-chain order — everything a later float summation runs over —
// follow from the inserts alone. The test suite keeps a map-keyed
// insert as a reference and requires DeepEqual slabs.
//
// # Child order
//
// A node stores no list of its children: they are the nodes whose
// Parent is it, taken in descending index order. A new node is always
// appended to the slab (InsertSorted and AppendChild share that one
// wiring), CloneInto copies the slab as it is, and nothing else moves a
// node, so the order is fixed the moment a child is created. Owners
// rely on it: a reverse sweep over the slab that adds each node's count
// to its parent's running sum (cps's terminal weights) takes every
// node's children in that order, latest created first, so two trees
// that created each node's children in the same order take the same
// float sums bit for bit, however their slabs are numbered.
//
// A node is four fields — Count, Item, Parent, Link — 24 bytes, and
// TestNodeLayout pins that size, so a field added back is a choice made
// on purpose: every tree node of every session pays for it, and every
// poll copies it.
//
// # Concurrency
//
// An Arena is not safe for concurrent use in general, with one
// carve-out: the read-only walks (Support, ChainCount) take all their
// scratch from the caller and read Nodes and Headers only — never the child
// index — so any number of goroutines may run them against the same
// arena concurrently, provided no mutating method (InsertSorted,
// AppendChild, BorrowScratch, Reserve, Decay, Reset, CloneInto as
// target) runs at the same time.
// The reusable per-tree scratch that makes the *owning* trees
// single-threaded lives in cps/fptree, not here.
package itemtree

import (
	"math/bits"
	"slices"
)

// NilIdx marks an empty int32 index slot. Node index 0 is the root, so
// 0 doubles as "none" for link, root-child and child-index slots (the
// root can never be a child or on a header chain); as a Parent it names
// the root.
const NilIdx = int32(0)

// Node is one arena slot. Parent is the tree edge (a node's children
// are the nodes naming it, in descending index order); Link is the
// per-item header chain. Item is a token whose meaning the owning
// package defines (an attribute id, or a parent-tree rank in FPGrowth
// conditionals).
type Node struct {
	Count  float64
	Item   int32 // owner-defined token
	Parent int32 // arena index; 0 = root
	Link   int32 // next node with the same item, 0 = none
}

// Header is the per-rank summary: the total weight the owner
// accumulates (or fixes at build time) and the node-link chain
// endpoints.
type Header struct {
	Count      float64
	Head, Tail int32
}

// Arena is the structural core: the node slab plus the per-rank header
// and root-child tables. Owners append to Headers/RootChild as they
// register items (one entry per rank, RootChild zeroed).
type Arena struct {
	Nodes     []Node
	Headers   []Header
	RootChild []int32 // rank -> arena index of the root's child

	// The child index (see the package comment): an open-addressed
	// (parent, item) -> child table over the nodes below the root's
	// children. Slots hold arena indexes, NilIdx = empty. len(index)
	// is the logical table size, a power of two — or zero while there
	// is no index (zero value, after Reset, a CloneInto target), in
	// which case the next insert below a root child builds it. The
	// slab's capacity survives Reset.
	index      []int32
	indexShift uint8 // 64 - log2(len(index))
	indexUsed  int32 // occupied slots
}

// Init makes the arena a valid empty tree (root sentinel only).
func (a *Arena) Init() {
	a.Nodes = append(a.Nodes, Node{})
}

// Reset truncates the arena back to the root and clears the per-rank
// tables, keeping all capacity. Resetting a zero-value Arena is
// equivalent to Init, so pooled trees need no separate initialization.
func (a *Arena) Reset() {
	a.Nodes = append(a.Nodes[:0], Node{})
	a.Headers = a.Headers[:0]
	a.RootChild = a.RootChild[:0]
	a.dropIndex()
}

// dropIndex shrinks the child index to the empty logical table in
// O(1), keeping the slab: the next insert below a root child rebuilds
// it at a size that fits the nodes then present, so a tree that is
// rebuilt small after having been large does not pay for its old size.
func (a *Arena) dropIndex() {
	a.index = a.index[:0]
	a.indexUsed = 0
}

// AddRank appends one rank slot to the per-rank tables.
func (a *Arena) AddRank(h Header) {
	a.Headers = append(a.Headers, h)
	a.RootChild = append(a.RootChild, NilIdx)
}

// NumNodes reports the number of tree nodes (excluding the root).
func (a *Arena) NumNodes() int { return len(a.Nodes) - 1 }

// Reserve makes room for n more nodes, so that inserting them does not
// regrow the slab. The reservation is exact — append's geometric growth
// would add up to a quarter on top of what is already an upper bound.
func (a *Arena) Reserve(n int) {
	if need := len(a.Nodes) + n; need > cap(a.Nodes) {
		a.Nodes = append(make([]Node, 0, need), a.Nodes...)
	}
}

// Decay multiplies every node and header count by retain — a linear
// sweep over the slab, no pointer chasing.
func (a *Arena) Decay(retain float64) {
	for i := 1; i < len(a.Nodes); i++ {
		a.Nodes[i].Count *= retain
	}
	for i := range a.Headers {
		a.Headers[i].Count *= retain
	}
}

// CloneInto deep-copies the arena's state — Nodes, Headers, RootChild —
// into dst. The child index is scratch and is not copied: dst rebuilds
// its own on its first insert below a root child, so a snapshot that is
// only read never carries one.
func (a *Arena) CloneInto(dst *Arena) {
	dst.Nodes = slices.Clone(a.Nodes)
	dst.Headers = slices.Clone(a.Headers)
	dst.RootChild = slices.Clone(a.RootChild)
	dst.dropIndex()
}

// SortByRank insertion-sorts items ascending by rank[item].
// Transactions are short and often nearly ordered, so this beats a
// sort.Slice closure and allocates nothing.
func SortByRank(items []int32, rank []int32) {
	for i := 1; i < len(items); i++ {
		v := items[i]
		r := rank[v]
		j := i - 1
		for j >= 0 && rank[items[j]] > r {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = v
	}
}

// SortByRankDesc insertion-sorts items descending by rank[item]
// (deepest tree level first), the order support queries walk.
func SortByRankDesc(items []int32, rank []int32) {
	for i := 1; i < len(items); i++ {
		v := items[i]
		r := rank[v]
		j := i - 1
		for j >= 0 && rank[items[j]] < r {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = v
	}
}

// InsertSorted descends the tree along a rank-sorted transaction,
// creating missing nodes (entered in the root-child table or the child
// index, and linked into the per-rank header chain) and adding w
// to every node on the path. Header count accumulation stays with the
// owner, whose semantics differ between the trees. rank must cover
// every item.
func (a *Arena) InsertSorted(items []int32, rank []int32, w float64) {
	cur := NilIdx // root
	for _, it := range items {
		var child int32
		var slot int
		if cur == NilIdx {
			child = a.RootChild[rank[it]]
		} else {
			if len(a.index) == 0 {
				a.reindex(indexSizeFor(len(a.Nodes) - 1))
			}
			child, slot = a.findChild(cur, it)
		}
		if child == NilIdx {
			child = a.newChild(cur, it, rank[it], 0)
			if cur != NilIdx {
				a.index[slot] = child
				a.indexUsed++
				if int(a.indexUsed) > indexLimit(len(a.index)) {
					a.reindex(2 * len(a.index))
				}
			}
		}
		a.Nodes[child].Count += w
		cur = child
	}
}

// newChild appends a node carrying item (of rank r) with the given
// count below parent — the highest index among parent's children, so
// it comes first in child order — enters it in the root-child table
// when parent is the root, and links it at the tail of the rank's
// header chain. The child index is the caller's business.
func (a *Arena) newChild(parent, item, r int32, count float64) int32 {
	child := int32(len(a.Nodes))
	a.Nodes = append(a.Nodes, Node{Count: count, Item: item, Parent: parent})
	if parent == NilIdx {
		a.RootChild[r] = child
	}
	h := &a.Headers[r]
	if h.Tail == NilIdx {
		h.Head, h.Tail = child, child
	} else {
		a.Nodes[h.Tail].Link = child
		h.Tail = child
	}
	return child
}

// AppendChild is the builder's insert, for an owner that constructs a
// whole tree at once from paths it has already grouped (cps's
// Restructure): it creates a child of parent carrying item, of rank r,
// with the given count, appended to the slab and wired exactly as
// InsertSorted wires a new node — but it looks nothing up, so the
// caller must know that parent has no such child yet, and it leaves the
// child index dropped (the next InsertSorted below a root child
// rebuilds it). It returns the child's index.
func (a *Arena) AppendChild(parent, item, r int32, count float64) int32 {
	a.dropIndex()
	return a.newChild(parent, item, r, count)
}

// BorrowScratch lends the caller the child index's slab as n int32s of
// scratch, growing it if it is short, and drops the index. The loan is
// good until the next InsertSorted, which may rebuild the index in that
// slab; AppendChild leaves it alone. An owner rebuilding the tree with
// AppendChild has no index to keep, so its working space costs no
// second slab of the tree's size.
func (a *Arena) BorrowScratch(n int) []int32 {
	a.dropIndex()
	if cap(a.index) < n {
		a.index = make([]int32, 0, n)
	}
	return a.index[:n]
}

const indexMinSize = 8

// indexLimit is the occupancy past which a child index of the given
// size doubles: 3/4, so the table runs between 3/8 and 3/4 full.
func indexLimit(size int) int { return size / 4 * 3 }

// indexSizeFor returns the smallest table size that holds entries
// nodes within indexLimit.
func indexSizeFor(entries int) int {
	size := indexMinSize
	for indexLimit(size) < entries {
		size *= 2
	}
	return size
}

// indexSlot hashes a (parent, item) key to its home slot: a
// multiplicative hash, top bits taken.
func (a *Arena) indexSlot(parent, item int32) int {
	k := uint64(uint32(parent))<<32 | uint64(uint32(item))
	return int((k * 0x9E3779B97F4A7C15) >> a.indexShift)
}

// findChild looks up parent's child carrying item in the child index
// (which must exist). On a miss it returns NilIdx and the empty
// slot where that child belongs. A slot holds only an arena index; the
// key is read back from the node itself.
func (a *Arena) findChild(parent, item int32) (child int32, slot int) {
	mask := len(a.index) - 1
	for slot = a.indexSlot(parent, item); ; slot = (slot + 1) & mask {
		c := a.index[slot]
		if c == NilIdx {
			return NilIdx, slot
		}
		if n := &a.Nodes[c]; n.Parent == parent && n.Item == item {
			return c, slot
		}
	}
}

// reindex rebuilds the child index from Nodes into a table of the given
// size (a power of two), reusing the slab when it is large enough. It
// serves growth (a rehash into the doubled table) and the lazy build of
// a missing index alike.
func (a *Arena) reindex(size int) {
	if cap(a.index) >= size {
		a.index = a.index[:size]
		clear(a.index)
	} else {
		a.index = make([]int32, size)
	}
	a.indexShift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	used := int32(0)
	for i := 1; i < len(a.Nodes); i++ {
		n := &a.Nodes[i]
		if n.Parent == NilIdx {
			continue
		}
		slot := a.indexSlot(n.Parent, n.Item)
		for a.index[slot] != NilIdx {
			slot = (slot + 1) & mask
		}
		a.index[slot] = int32(i)
		used++
	}
	a.indexUsed = used
}

// ChainCount sums the node-link chain of the given rank: the live
// total weight of the item, however the owner maintains its headers.
func (a *Arena) ChainCount(r int32) float64 {
	c := 0.0
	for n := a.Headers[r].Head; n != NilIdx; n = a.Nodes[n].Link {
		c += a.Nodes[n].Count
	}
	return c
}

// Support returns the total weight of transactions containing every
// item in q, which must be sorted descending by rank (SortByRankDesc):
// it walks the node-link chain of q[0] — the deepest item — and
// matches the remaining items along each prefix path.
//
// The accumulation order is the chain order, and chains only ever
// append (InsertSorted links new nodes at the tail), so inserting
// transactions that do not contain all of q leaves this sum
// bit-identical: the matching nodes, their counts, and their visit
// order are all unchanged.
func (a *Arena) Support(q []int32, rank []int32) float64 {
	h := a.Headers[rank[q[0]]]
	total := 0.0
	for n := h.Head; n != NilIdx; n = a.Nodes[n].Link {
		need := 1 // q[0] matched at n itself
		for p := a.Nodes[n].Parent; p != NilIdx && need < len(q); p = a.Nodes[p].Parent {
			if a.Nodes[p].Item == q[need] {
				need++
			}
		}
		if need == len(q) {
			total += a.Nodes[n].Count
		}
	}
	return total
}
