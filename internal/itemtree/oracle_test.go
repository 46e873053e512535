package itemtree

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// scanInsertSorted is InsertSorted as it was before the child index:
// below the root it finds a child by walking the parent's sibling
// list. It is kept, in tests only, as the reference the indexed lookup
// must reproduce bit for bit — same nodes in the same creation order,
// same First/Next and Link wiring — and it never touches the index
// fields, so an oracle arena stays index-free.
func scanInsertSorted(a *Arena, items []int32, rank []int32, w float64) {
	cur := NilIdx
	for _, it := range items {
		child := NilIdx
		if cur == NilIdx {
			child = a.RootChild[rank[it]]
		} else {
			for c := a.Nodes[cur].First; c != NilIdx; c = a.Nodes[c].Next {
				if a.Nodes[c].Item == it {
					child = c
					break
				}
			}
		}
		if child == NilIdx {
			child = int32(len(a.Nodes))
			a.Nodes = append(a.Nodes, Node{Item: it, Parent: cur, Next: a.Nodes[cur].First})
			a.Nodes[cur].First = child
			if cur == NilIdx {
				a.RootChild[rank[it]] = child
			}
			h := &a.Headers[rank[it]]
			if h.Tail == NilIdx {
				h.Head, h.Tail = child, child
			} else {
				a.Nodes[h.Tail].Link = child
				h.Tail = child
			}
		}
		a.Nodes[child].Count += w
		cur = child
	}
}

// txGen draws rank-sorted transactions shaped like the end-to-end
// benchmark's complex queries: up to six attribute columns with
// cardinalities from 40 to 5000, one item per column, values Zipf or
// uniform. Item ids are dense (column offset + value) and rank == id,
// so the 40-value column sits at the root and the >10000 other items
// all live below it, where fan-out reaches the thousands.
type txGen struct {
	rng   *rand.Rand
	cards []int
	offs  []int32
	zipf  []*rand.Zipf // nil = uniform
	rank  []int32
}

func newTxGen(seed uint64, zipf bool) *txGen {
	g := &txGen{rng: rand.New(rand.NewPCG(seed, 15)), cards: []int{40, 300, 5000, 1000, 5000, 200}}
	n := int32(0)
	for _, c := range g.cards {
		g.offs = append(g.offs, n)
		n += int32(c)
		if zipf {
			g.zipf = append(g.zipf, rand.NewZipf(g.rng, 1.1, 1, uint64(c-1)))
		}
	}
	g.rank = make([]int32, n)
	for i := range g.rank {
		g.rank[i] = int32(i)
	}
	return g
}

// next fills dst with a transaction over a random prefix-free subset of
// 1..6 columns (so depth varies), sorted by rank.
func (g *txGen) next(dst []int32) []int32 {
	dst = dst[:0]
	depth := 1 + g.rng.IntN(len(g.cards))
	for col := range g.cards {
		// Keep `depth` of the columns, chosen without bias.
		if left := len(g.cards) - col; g.rng.IntN(left) >= depth {
			continue
		}
		depth--
		v := 0
		if g.zipf != nil {
			v = int(g.zipf[col].Uint64())
		} else {
			v = g.rng.IntN(g.cards[col])
		}
		dst = append(dst, g.offs[col]+int32(v))
	}
	return dst // offsets ascend with col, so already rank-sorted
}

func (g *txGen) addRanks(a *Arena) {
	for range g.rank {
		a.AddRank(Header{})
	}
}

// pair drives the indexed arena and the scan oracle in lockstep.
type pair struct {
	t      *testing.T
	g      *txGen
	a, ref *Arena
	tx     []int32
	q      []int32
}

func newPair(t *testing.T, g *txGen) *pair {
	p := &pair{t: t, g: g, a: &Arena{}, ref: &Arena{}}
	p.a.Init()
	p.ref.Init()
	g.addRanks(p.a)
	g.addRanks(p.ref)
	return p
}

func (p *pair) insert(n int) {
	for i := 0; i < n; i++ {
		p.tx = p.g.next(p.tx)
		w := float64(1 + p.g.rng.IntN(3))
		p.a.InsertSorted(p.tx, p.g.rank, w)
		scanInsertSorted(p.ref, p.tx, p.g.rank, w)
		if i%97 == 0 {
			p.read()
		}
	}
}

// read runs the support walks over the transaction just inserted (and
// a sub-itemset of it) on both arenas: same answers, and — being
// reads — no effect on what equal() compares next.
func (p *pair) read() {
	p.t.Helper()
	p.q = append(p.q[:0], p.tx...)
	if len(p.q) > 2 {
		p.q = p.q[1:] // drop the root item: a proper sub-itemset
	}
	SortByRankDesc(p.q, p.g.rank)
	got, want := p.a.Support(p.q, p.g.rank), p.ref.Support(p.q, p.g.rank)
	if got != want || got <= 0 {
		p.t.Fatalf("Support(%v) = %v, oracle %v", p.q, got, want)
	}
}

func (p *pair) equal(phase string) {
	p.t.Helper()
	if !reflect.DeepEqual(p.a.Nodes, p.ref.Nodes) {
		p.t.Fatalf("%s: Nodes diverge from the sibling-scan oracle (%d vs %d nodes)", phase, len(p.a.Nodes), len(p.ref.Nodes))
	}
	if !reflect.DeepEqual(p.a.Headers, p.ref.Headers) {
		p.t.Fatalf("%s: Headers diverge from the sibling-scan oracle", phase)
	}
	if !reflect.DeepEqual(p.a.RootChild, p.ref.RootChild) {
		p.t.Fatalf("%s: RootChild diverges from the sibling-scan oracle", phase)
	}
	if p.ref.index != nil {
		p.t.Fatalf("%s: the oracle grew an index", phase)
	}
}

// clone forks both sides; the generator (and so the stream of
// transactions) is shared, which makes the copies diverge.
func (p *pair) clone() *pair {
	c := &pair{t: p.t, g: p.g, a: &Arena{}, ref: &Arena{}}
	p.a.CloneInto(c.a)
	p.ref.CloneInto(c.ref)
	return c
}

// TestIndexedInsertMatchesSiblingScan is the differential oracle for
// the child index: every phase that can build, grow, drop or rebuild
// the table must leave Nodes, Headers and RootChild DeepEqual to what
// the linear sibling scan produces.
func TestIndexedInsertMatchesSiblingScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		zipf bool
	}{{"zipf", true}, {"uniform", false}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, newTxGen(7, tc.zipf))

			// Grow from empty across several rehashes.
			rehashes, size := 0, len(p.a.index)
			for step := 0; step < 40; step++ {
				p.insert(1000)
				p.equal("grow")
				if len(p.a.index) != size {
					rehashes, size = rehashes+1, len(p.a.index)
				}
			}
			if rehashes < 4 {
				t.Fatalf("grow phase crossed %d rehashes, want >= 4 (table %d slots for %d nodes)", rehashes, size, p.a.NumNodes())
			}
			below, deep := map[int32]bool{}, 0
			for _, n := range p.a.Nodes[1:] {
				if n.Parent != NilIdx {
					below[n.Item] = true
					deep++
				}
			}
			if len(below) < 5000 {
				t.Fatalf("only %d distinct items below the root, want >= 5000", len(below))
			}
			if used := int(p.a.indexUsed); used != deep || used > indexLimit(len(p.a.index)) {
				t.Fatalf("index bookkeeping: %d of %d slots used for %d nodes below the root's children", used, len(p.a.index), deep)
			}

			// Decay rewrites counts only; inserts continue on the same index.
			p.a.Decay(0.5)
			p.ref.Decay(0.5)
			p.insert(2000)
			p.equal("decay")

			// Clone, then diverge on both copies: the clone has no index
			// and rebuilds it on its first insert below the root; the
			// original keeps using its own.
			c := p.clone()
			if len(c.a.index) != 0 {
				t.Fatalf("CloneInto carried a %d-slot index", len(c.a.index))
			}
			c.equal("clone")
			c.insert(3000)
			p.insert(3000)
			c.equal("clone diverged")
			p.equal("original diverged")
			if len(c.a.index) == 0 {
				t.Fatal("the clone never rebuilt its index")
			}

			// Cloning over an arena that has an index must invalidate it.
			p.a.CloneInto(c.a)
			p.ref.CloneInto(c.ref)
			c.insert(1000)
			c.equal("clone over indexed arena")

			// Reset and reuse: a smaller tree on the retained slabs.
			slab := cap(p.a.index)
			p.a.Reset()
			p.ref.Reset()
			if len(p.a.index) != 0 {
				t.Fatalf("Reset left a %d-slot logical table", len(p.a.index))
			}
			p.g.addRanks(p.a)
			p.g.addRanks(p.ref)
			p.insert(1500)
			p.equal("reset")
			if cap(p.a.index) != slab {
				t.Fatalf("rebuild after Reset reallocated the index slab: cap %d -> %d", slab, cap(p.a.index))
			}
			if len(p.a.index) >= slab {
				t.Fatalf("rebuild after Reset kept the old logical size %d", len(p.a.index))
			}
		})
	}
}

// TestCloneIntoCopiesStateOnly pins what a snapshot costs: CloneInto
// copies Nodes, Headers and RootChild and nothing else — every other
// Arena field (the child index and its bookkeeping, whatever is added
// later) is scratch and stays zero on a fresh clone.
func TestCloneIntoCopiesStateOnly(t *testing.T) {
	p := newPair(t, newTxGen(3, true))
	p.insert(5000)
	if len(p.a.index) == 0 {
		t.Fatal("source arena has no index; the test would prove nothing")
	}
	var c Arena
	p.a.CloneInto(&c)
	state := map[string]bool{"Nodes": true, "Headers": true, "RootChild": true}
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if state[name] {
			if !reflect.DeepEqual(v.Field(i).Interface(), reflect.ValueOf(*p.a).Field(i).Interface()) {
				t.Errorf("CloneInto: %s differs from the source", name)
			}
			continue
		}
		if !v.Field(i).IsZero() {
			t.Errorf("CloneInto copied scratch field %s", name)
		}
	}
}

// TestRootOnlyTreeNeverIndexes: one-attribute transactions resolve
// every child through RootChild, so such a tree never builds a table.
func TestRootOnlyTreeNeverIndexes(t *testing.T) {
	rank := make([]int32, 5000)
	var a Arena
	a.Init()
	for i := range rank {
		rank[i] = int32(i)
		a.AddRank(Header{})
	}
	for i := 0; i < 20000; i++ {
		a.InsertSorted([]int32{int32(i * 7 % len(rank))}, rank, 1)
	}
	if a.index != nil || a.indexUsed != 0 {
		t.Fatalf("root-only tree built an index: %d slots, %d used", len(a.index), a.indexUsed)
	}
}

// TestResetRebuildAllocatesNothing: once the slabs are warm, a
// Reset -> rebuild cycle (what every conditional FP-tree frame and
// every M-CPS restructure does) touches no allocator, index included.
func TestResetRebuildAllocatesNothing(t *testing.T) {
	g := newTxGen(11, true)
	txs := make([][]int32, 4000)
	for i := range txs {
		txs[i] = g.next(nil)
	}
	var a Arena
	rebuild := func() {
		a.Reset()
		g.addRanks(&a)
		for _, tx := range txs {
			a.InsertSorted(tx, g.rank, 1)
		}
	}
	rebuild()
	if allocs := testing.AllocsPerRun(5, rebuild); allocs != 0 {
		t.Fatalf("steady-state Reset+rebuild allocates %v times, want 0", allocs)
	}
}

// BenchmarkInsertSorted measures the per-transaction cost on a warm
// benchmark-shaped tree (mostly hits, the streaming steady state) and
// the cost of building that tree from empty (mostly misses plus index
// growth, the Restructure/Merge/BuildInto regime).
func BenchmarkInsertSorted(b *testing.B) {
	g := newTxGen(1, true)
	txs := make([][]int32, 200_000)
	for i := range txs {
		txs[i] = g.next(nil)
	}
	b.Run("warm", func(b *testing.B) {
		var a Arena
		a.Init()
		g.addRanks(&a)
		for _, tx := range txs {
			a.InsertSorted(tx, g.rank, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.InsertSorted(txs[i%len(txs)], g.rank, 1)
		}
		b.ReportMetric(float64(4*cap(a.index))/float64(a.NumNodes()), "indexB/node")
	})
	b.Run("build", func(b *testing.B) {
		var a Arena
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(txs) == 0 {
				a.Reset()
				g.addRanks(&a)
			}
			a.InsertSorted(txs[i%len(txs)], g.rank, 1)
		}
	})
}
