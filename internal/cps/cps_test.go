package cps

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"

	"macrobase/internal/fptree"
)

func key(items []int32) string {
	cp := append([]int32(nil), items...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return fmt.Sprint(cp)
}

// flat converts a count map to the parallel-slice form Restructure
// takes, in deterministic id order.
func flat(m map[int32]float64) ([]int32, []float64) {
	items := make([]int32, 0, len(m))
	for it := range m {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	counts := make([]float64, len(items))
	for i, it := range items {
		counts[i] = m[it]
	}
	return items, counts
}

func randomTxs(rng *rand.Rand, nTx, universe, maxLen int) [][]int32 {
	txs := make([][]int32, nTx)
	for i := range txs {
		seen := map[int32]bool{}
		for j := 0; j < 1+rng.IntN(maxLen); j++ {
			seen[int32(rng.IntN(universe))] = true
		}
		for it := range seen {
			txs[i] = append(txs[i], it)
		}
	}
	return txs
}

// TestMCPSMatchesFPTreeWithoutDecay: with no restructuring or decay,
// the M-CPS-tree must mine exactly the same itemsets as a batch
// FP-tree over the same transactions.
func TestMCPSMatchesFPTreeWithoutDecay(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 40; trial++ {
		txs := randomTxs(rng, 3+rng.IntN(25), 7, 5)
		minCount := float64(1 + rng.IntN(3))
		tree := NewMCPS()
		for _, tx := range txs {
			tree.Insert(tx, 1)
		}
		got := map[string]float64{}
		for _, is := range tree.Mine(minCount, 0) {
			got[key(is.Items)] = is.Count
		}
		want := map[string]float64{}
		for _, is := range fptree.Build(txs, nil, minCount).Mine(minCount, 0) {
			want[key(is.Items)] = is.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MCPS %v != FP %v (txs %v)", trial, got, want, txs)
		}
	}
}

// TestRestructurePreservesCounts: restructuring with retain=1 and the
// full item set must not change mined results.
func TestRestructurePreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	txs := randomTxs(rng, 30, 6, 4)
	tree := NewMCPS()
	counts := map[int32]float64{}
	for _, tx := range txs {
		tree.Insert(tx, 1)
		for _, it := range tx {
			counts[it]++
		}
	}
	before := map[string]float64{}
	for _, is := range tree.Mine(1, 0) {
		before[key(is.Items)] = is.Count
	}
	items, cs := flat(counts)
	tree.Restructure(items, cs, 1)
	after := map[string]float64{}
	for _, is := range tree.Mine(1, 0) {
		after[key(is.Items)] = is.Count
	}
	for k, v := range before {
		if math.Abs(after[k]-v) > 1e-9 {
			t.Fatalf("itemset %s: before %v after %v", k, v, after[k])
		}
	}
	if len(after) != len(before) {
		t.Fatalf("itemset count changed: %d -> %d", len(before), len(after))
	}
}

func TestRestructureDecaysAndPrunes(t *testing.T) {
	tree := NewMCPS()
	for i := 0; i < 10; i++ {
		tree.Insert([]int32{1, 2}, 1)
	}
	for i := 0; i < 4; i++ {
		tree.Insert([]int32{3}, 1)
	}
	if got := tree.ItemCount(1); got != 10 {
		t.Fatalf("ItemCount(1) = %v", got)
	}
	// Keep only items 1 and 2; halve counts.
	tree.Restructure([]int32{1, 2}, []float64{5, 5}, 0.5)
	if got := tree.ItemCount(1); math.Abs(got-5) > 1e-9 {
		t.Errorf("decayed ItemCount(1) = %v, want 5", got)
	}
	if got := tree.ItemCount(3); got != 0 {
		t.Errorf("pruned ItemCount(3) = %v, want 0", got)
	}
	if tree.NumItems() != 2 {
		t.Errorf("NumItems = %d, want 2", tree.NumItems())
	}
	// Item 3 is now rejected on insert (M-CPS allowed-set behavior).
	tree.Insert([]int32{3}, 1)
	if got := tree.ItemCount(3); got != 0 {
		t.Errorf("M-CPS admitted pruned item: %v", got)
	}
	// Items 1,2 still accepted.
	tree.Insert([]int32{1, 2}, 1)
	if got := tree.ItemCount(1); math.Abs(got-6) > 1e-9 {
		t.Errorf("ItemCount(1) = %v, want 6", got)
	}
}

func TestCPSKeepsEverything(t *testing.T) {
	tree := NewCPS()
	tree.Insert([]int32{1, 2}, 1)
	tree.Insert([]int32{3}, 1)
	// CPS restructure: nil frequent set = keep all, reorder by own
	// counts.
	tree.Restructure(nil, nil, 1)
	if tree.NumItems() != 3 {
		t.Errorf("CPS NumItems = %d, want 3", tree.NumItems())
	}
	tree.Insert([]int32{4}, 1) // new items always admitted
	if got := tree.ItemCount(4); got != 1 {
		t.Errorf("CPS rejected new item: %v", got)
	}
}

// TestRestructureReordersCorrectly: after restructure, mining must
// still be exact even though insertion order and tree order differ.
func TestRestructureMidStreamStaysExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	txsA := randomTxs(rng, 20, 6, 4)
	txsB := randomTxs(rng, 20, 6, 4)
	tree := NewMCPS()
	counts := map[int32]float64{}
	for _, tx := range txsA {
		tree.Insert(tx, 1)
		for _, it := range tx {
			counts[it]++
		}
	}
	// Restructure keeping all items, no decay, then continue.
	items, cs := flat(counts)
	tree.Restructure(items, cs, 1)
	for _, tx := range txsB {
		tree.Insert(tx, 1)
	}
	all := append(append([][]int32{}, txsA...), txsB...)
	want := map[string]float64{}
	for _, is := range fptree.Build(all, nil, 1).Mine(1, 0) {
		want[key(is.Items)] = is.Count
	}
	got := map[string]float64{}
	for _, is := range tree.Mine(1, 0) {
		got[key(is.Items)] = is.Count
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("itemset %s: got %v want %v", k, got[k], v)
		}
	}
}

func TestItemsetSupportMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	txs := randomTxs(rng, 40, 8, 5)
	tree := NewMCPS()
	for _, tx := range txs {
		tree.Insert(tx, 1)
	}
	for q := 0; q < 30; q++ {
		qn := 1 + rng.IntN(3)
		qs := map[int32]bool{}
		for len(qs) < qn {
			qs[int32(rng.IntN(8))] = true
		}
		var query []int32
		for it := range qs {
			query = append(query, it)
		}
		want := 0.0
		for _, tx := range txs {
			has := map[int32]bool{}
			for _, it := range tx {
				has[it] = true
			}
			all := true
			for _, it := range query {
				if !has[it] {
					all = false
				}
			}
			if all {
				want++
			}
		}
		if got := tree.ItemsetSupport(query); math.Abs(got-want) > 1e-9 {
			t.Fatalf("support(%v) = %v, want %v", query, got, want)
		}
	}
}

func TestNumNodesSharing(t *testing.T) {
	tree := NewMCPS()
	tree.Insert([]int32{1, 2}, 1)
	tree.Insert([]int32{1, 2}, 1)
	tree.Insert([]int32{1, 3}, 1)
	if got := tree.NumNodes(); got != 3 {
		t.Errorf("NumNodes = %d, want 3 (shared prefix)", got)
	}
}

// TestMergeEqualsUnionInsert: merging two trees built over disjoint
// transaction sets must support every itemset with the same weight as
// one tree built over the union.
func TestMergeEqualsUnionInsert(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 43))
	txsA := randomTxs(rng, 300, 12, 4)
	txsB := randomTxs(rng, 300, 12, 4)

	a, b, union := NewMCPS(), NewMCPS(), NewMCPS()
	for _, tx := range txsA {
		a.Insert(tx, 1)
		union.Insert(tx, 1)
	}
	for _, tx := range txsB {
		b.Insert(tx, 1)
		union.Insert(tx, 1)
	}
	merged := a.Clone()
	merged.Merge(b)

	for _, want := range union.Mine(1, 0) {
		got := merged.ItemsetSupport(want.Items)
		if math.Abs(got-want.Count) > 1e-6 {
			t.Errorf("itemset %v: merged support %v, union support %v", want.Items, got, want.Count)
		}
	}
	// And the reverse order agrees too.
	merged2 := b.Clone()
	merged2.Merge(a)
	for _, want := range union.Mine(1, 0) {
		got := merged2.ItemsetSupport(want.Items)
		if math.Abs(got-want.Count) > 1e-6 {
			t.Errorf("itemset %v: reverse-merged support %v, union support %v", want.Items, got, want.Count)
		}
	}
}

// TestCloneIndependent: mutating the original after cloning must not
// affect the clone.
func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	txs := randomTxs(rng, 200, 10, 4)
	orig := NewMCPS()
	for _, tx := range txs {
		orig.Insert(tx, 1)
	}
	c := orig.Clone()
	before := map[string]float64{}
	for _, is := range c.Mine(1, 0) {
		before[key(is.Items)] = is.Count
	}
	orig.Insert([]int32{0, 1, 2}, 50)
	orig.Restructure(nil, nil, 0.5)
	after := map[string]float64{}
	for _, is := range c.Mine(1, 0) {
		after[key(is.Items)] = is.Count
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("clone changed when original was mutated")
	}
}

// TestInsertZeroAlloc pins the allocation-free per-point hot path:
// once a transaction's prefix nodes exist in the arena, re-inserting
// it must not touch the allocator.
func TestInsertZeroAlloc(t *testing.T) {
	tree := NewMCPS()
	txs := [][]int32{{1, 2, 3}, {1, 2}, {4, 5}, {1, 4, 6}}
	for _, tx := range txs {
		tree.Insert(tx, 1)
	}
	n := testing.AllocsPerRun(1000, func() {
		for _, tx := range txs {
			tree.Insert(tx, 1)
		}
	})
	if n != 0 {
		t.Fatalf("Insert allocates %v allocs/run, want 0", n)
	}
}

// TestRestructureSteadyStateZeroAlloc: after the first restructure has
// sized the scratch buffers, further restructures over the same item
// universe must allocate nothing.
func TestRestructureSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	txs := randomTxs(rng, 200, 12, 5)
	tree := NewMCPS()
	counts := map[int32]float64{}
	for _, tx := range txs {
		tree.Insert(tx, 1)
		for _, it := range tx {
			counts[it]++
		}
	}
	items, cs := flat(counts)
	tree.Restructure(items, cs, 0.99) // size the scratch
	for _, tx := range txs {
		tree.Insert(tx, 1)
	}
	n := testing.AllocsPerRun(20, func() {
		tree.Restructure(items, cs, 0.99)
		for _, tx := range txs {
			tree.Insert(tx, 1)
		}
	})
	if n != 0 {
		t.Fatalf("Restructure allocates %v allocs/run, want 0", n)
	}
}

// TestMergeIntoGrownTreeZeroAlloc: Merge reserves the destination slab
// once, so a merge into a tree that already has the room — and whose
// child index and source-side path buffer are warm — touches no
// allocator. (On the poll path the destination is a fresh Clone, where
// that one reservation replaces log(n) regrowths of the node slab.)
func TestMergeIntoGrownTreeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	a, b := NewMCPS(), NewMCPS()
	for _, tx := range randomTxs(rng, 400, 40, 5) {
		a.Insert(tx, 1)
	}
	for _, tx := range randomTxs(rng, 400, 40, 5) {
		b.Insert(tx, 1)
	}
	dst := a.Clone()
	dst.arena.Reserve(12 * b.NumNodes()) // room for every merge below
	before := dst.NumNodes()
	// AllocsPerRun's warm-up call is the merge that adds b's nodes; the
	// measured ones replay the same paths over them.
	n := testing.AllocsPerRun(10, func() { dst.Merge(b) })
	if n != 0 {
		t.Fatalf("Merge into a pre-grown tree allocates %v allocs/run, want 0", n)
	}
	if dst.NumNodes() <= before {
		t.Fatal("the merge added no nodes; the test would prove nothing")
	}
}

// TestMergeReservesSlabOnce: folding a tree into a Clone (cap == len)
// grows the node slab in one step to exactly len+src.NumNodes(), the
// most the replay can need, never by repeated doubling.
func TestMergeReservesSlabOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(95, 96))
	a, b := NewMCPS(), NewMCPS()
	for _, tx := range randomTxs(rng, 2000, 60, 5) {
		a.Insert(tx, 1)
	}
	for _, tx := range randomTxs(rng, 2000, 60, 5) {
		b.Insert(tx, 1)
	}
	m := a.Clone()
	m.Merge(b)
	if c, want := cap(m.arena.Nodes), a.NumNodes()+1+b.NumNodes(); c != want {
		t.Fatalf("merged slab cap %d, want one reservation of %d (%d + %d nodes)", c, want, a.NumNodes()+1, b.NumNodes())
	}
	if m.NumNodes() <= a.NumNodes() {
		t.Fatal("the merge added no nodes")
	}
}

// TestCountersReadConcurrentlyBesideIndex is the concurrent-read
// carve-out under the race detector: a tree that has been inserted
// into (so its child index exists) serves any number of Counters at
// once, because the support walks read Nodes and Headers only and
// never touch the index. Run with -race.
func TestCountersReadConcurrentlyBesideIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 98))
	tree := NewMCPS()
	for _, tx := range randomTxs(rng, 3000, 50, 6) {
		tree.Insert(tx, 1)
	}
	if len(tree.arena.Nodes) < 1000 {
		t.Fatalf("tree too small (%d nodes) to have grown an index", len(tree.arena.Nodes))
	}
	queries := randomTxs(rng, 200, 50, 3)
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = tree.ItemsetSupport(q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Counter
			c.Retarget(tree)
			for i, q := range queries {
				if got := c.Support(q); got != want[i] {
					t.Errorf("Counter.Support(%v) = %v, want %v", q, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeepAllRestructureLeavesMCPSOpen: a nil (keep-all) restructure
// of an M-CPS tree must not install the current item set as the
// allowed filter — genuinely new items stay insertable until the next
// explicit frequent set arrives.
func TestKeepAllRestructureLeavesMCPSOpen(t *testing.T) {
	tree := NewMCPS()
	tree.Insert([]int32{1}, 1)
	tree.Restructure(nil, nil, 1)
	tree.Insert([]int32{2}, 1)
	if got := tree.ItemCount(2); got != 1 {
		t.Fatalf("new item dropped after keep-all restructure: ItemCount(2) = %v, want 1", got)
	}
	// An explicit frequent set re-installs the filter.
	tree.Restructure([]int32{1}, []float64{1}, 1)
	tree.Insert([]int32{2}, 1)
	if got := tree.ItemCount(2); got != 0 {
		t.Fatalf("filter not re-installed: ItemCount(2) = %v, want 0", got)
	}
}

// TestEmptyFrequentSetClosesEmptyTree: an explicit empty frequent set
// must close the M-CPS insert filter even when the tree has never
// stored an item (regression found by FuzzTreeOps: the dense allowed
// table came out nil — accept-everything — when the rank table was
// empty).
func TestEmptyFrequentSetClosesEmptyTree(t *testing.T) {
	tree := NewMCPS()
	tree.Restructure([]int32{}, nil, 1)
	tree.Insert([]int32{3}, 1)
	if got := tree.ItemCount(3); got != 0 {
		t.Fatalf("empty frequent set left the filter open: ItemCount(3) = %v, want 0", got)
	}
}

// TestMineSteadyStateAllocationBounded: with the per-tree FP-tree and
// per-miner conditional arenas, a repeated Mine over an unchanged tree
// allocates only its output — one Items slice per mined itemset plus
// the result slice's growth — independent of tree size or repetition
// count.
func TestMineSteadyStateAllocationBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	tree := NewMCPS()
	for _, tx := range randomTxs(rng, 400, 12, 6) {
		tree.Insert(tx, 1)
	}
	n := len(tree.Mine(2, 0)) // warm the arenas
	if n == 0 {
		t.Fatal("workload mined nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		tree.Mine(2, 0)
	})
	// One allocation per itemset's Items slice plus O(log n) result
	// slice growth and a conditional-arena growth straggler or two.
	if limit := float64(n) + 2*math.Log2(float64(n+1)) + 8; allocs > limit {
		t.Errorf("steady-state Mine allocates %.0f for %d itemsets, want <= %.0f (output-bounded)", allocs, n, limit)
	}
}
