package fptree

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// bruteForce enumerates every itemset with count >= minCount by
// exhaustive subset counting — the test oracle for FPGrowth.
func bruteForce(txs [][]int32, weights []float64, minCount float64) map[string]float64 {
	universe := map[int32]bool{}
	for _, tx := range txs {
		for _, it := range tx {
			universe[it] = true
		}
	}
	var items []int32
	for it := range universe {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	out := map[string]float64{}
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) > 0 {
			w := 0.0
			for ti, tx := range txs {
				has := map[int32]bool{}
				for _, it := range tx {
					has[it] = true
				}
				all := true
				for _, it := range cur {
					if !has[it] {
						all = false
						break
					}
				}
				if all {
					if weights != nil {
						w += weights[ti]
					} else {
						w++
					}
				}
			}
			if w >= minCount {
				out[key(cur)] = w
			} else {
				return // supersets cannot qualify (anti-monotone)
			}
		}
		for i := start; i < len(items); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	return out
}

func key(items []int32) string {
	cp := append([]int32(nil), items...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return fmt.Sprint(cp)
}

func mineToMap(txs [][]int32, weights []float64, minCount float64) map[string]float64 {
	got := map[string]float64{}
	for _, is := range Build(txs, weights, minCount).Mine(minCount) {
		got[key(is.Items)] = is.Count
	}
	return got
}

func TestMineKnownExample(t *testing.T) {
	txs := [][]int32{
		{1, 2, 3},
		{1, 2},
		{1, 3},
		{1},
		{2, 3},
	}
	got := mineToMap(txs, nil, 2)
	want := map[string]float64{
		"[1]":   4,
		"[2]":   3,
		"[3]":   3,
		"[1 2]": 2,
		"[1 3]": 2,
		"[2 3]": 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mined = %v, want %v", got, want)
	}
}

func TestMineMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	reused := &Miner{}
	for trial := 0; trial < 60; trial++ {
		nTx := 1 + rng.IntN(25)
		txs := make([][]int32, nTx)
		for i := range txs {
			seen := map[int32]bool{}
			for j := 0; j < 1+rng.IntN(5); j++ {
				seen[int32(rng.IntN(7))] = true
			}
			for it := range seen {
				txs[i] = append(txs[i], it)
			}
		}
		minCount := float64(1 + rng.IntN(4))
		got := mineToMap(txs, nil, minCount)
		want := bruteForce(txs, nil, minCount)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: mined %v != brute %v (txs %v, min %v)", trial, got, want, txs, minCount)
		}
		// A recycled miner (frames and output stage from the previous
		// trial's mine) must return what a fresh one does, order included.
		tree := Build(txs, nil, minCount)
		if again := tree.MineWith(reused, minCount); !reflect.DeepEqual(again, tree.Mine(minCount)) {
			t.Fatalf("trial %d: a reused miner mined %v, a fresh one %v", trial, again, tree.Mine(minCount))
		}
	}
}

func TestMineWeighted(t *testing.T) {
	txs := [][]int32{{1, 2}, {1}, {2}}
	weights := []float64{2.5, 1.0, 0.25}
	got := mineToMap(txs, weights, 1.0)
	want := map[string]float64{"[1]": 3.5, "[2]": 2.75, "[1 2]": 2.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mined = %v, want %v", got, want)
	}
}

func TestItemsetSupport(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 40; trial++ {
		nTx := 5 + rng.IntN(30)
		txs := make([][]int32, nTx)
		for i := range txs {
			seen := map[int32]bool{}
			for j := 0; j < 1+rng.IntN(6); j++ {
				seen[int32(rng.IntN(8))] = true
			}
			for it := range seen {
				txs[i] = append(txs[i], it)
			}
		}
		tree := Build(txs, nil, 0)
		// Random queries of size 1..3.
		for q := 0; q < 20; q++ {
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
			if got := tree.ItemsetSupport(query); got != want {
				t.Fatalf("support(%v) = %v, want %v (txs %v)", query, got, want, txs)
			}
		}
	}
}

func TestItemsetSupportUnknownItem(t *testing.T) {
	tree := Build([][]int32{{1, 2}}, nil, 0)
	if got := tree.ItemsetSupport([]int32{99}); got != 0 {
		t.Errorf("unknown item support = %v", got)
	}
	if got := tree.ItemsetSupport(nil); got != 0 {
		t.Errorf("empty query support = %v", got)
	}
}

func TestMinePruningAtBuild(t *testing.T) {
	// Item 9 appears once; with minCount 2 it must not appear in any
	// itemset even though it co-occurs with frequent items.
	txs := [][]int32{{1, 9}, {1}, {1}}
	for _, is := range Build(txs, nil, 2).Mine(2) {
		for _, it := range is.Items {
			if it == 9 {
				t.Errorf("infrequent item mined: %v", is)
			}
		}
	}
}

func TestMineProperty(t *testing.T) {
	// Anti-monotonicity: every subset of a mined itemset has at least
	// its count.
	f := func(raw [][]uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		txs := make([][]int32, len(raw))
		for i, r := range raw {
			seen := map[int32]bool{}
			for _, v := range r {
				seen[int32(v%6)] = true
			}
			for it := range seen {
				txs[i] = append(txs[i], it)
			}
		}
		mined := Build(txs, nil, 1).Mine(1)
		counts := map[string]float64{}
		for _, is := range mined {
			counts[key(is.Items)] = is.Count
		}
		for _, is := range mined {
			if len(is.Items) < 2 {
				continue
			}
			for drop := range is.Items {
				sub := append([]int32{}, is.Items[:drop]...)
				sub = append(sub, is.Items[drop+1:]...)
				if counts[key(sub)] < is.Count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNumNodes(t *testing.T) {
	txs := [][]int32{{1, 2}, {1, 2}, {1, 3}}
	tree := Build(txs, nil, 0)
	// Paths: 1-2 (shared), 1-3 => nodes {1, 2, 3}.
	if got := tree.NumNodes(); got != 3 {
		t.Errorf("NumNodes = %d, want 3", got)
	}
}

// TestRebuildSteadyStateZeroAlloc: the FP-tree's Reset -> rebuild
// cycles run on retained slabs, child index included — the top-level
// BuildInto replay of a poll's mine and the conditional tree a miner
// frame hosts for every header item of the recursion. Once warm,
// neither touches the allocator, however many times a frame is reused.
func TestRebuildSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	txs := make([][]int32, 3000)
	for i := range txs {
		seen := map[int32]bool{}
		for j := 0; j < 2+rng.IntN(5); j++ {
			seen[int32(rng.IntN(60))] = true
		}
		for it := range seen {
			txs[i] = append(txs[i], it)
		}
	}
	tree := Build(txs, nil, 2)
	if n := testing.AllocsPerRun(10, func() { BuildInto(tree, txs, nil, 2) }); n != 0 {
		t.Errorf("steady-state BuildInto allocates %v allocs/run, want 0", n)
	}
	var m Miner
	if len(tree.MineWith(&m, 5)) == 0 { // warms the per-depth frames
		t.Fatal("workload mined nothing")
	}
	cond := m.frame(0)
	built := 0
	conditionals := func() {
		for r := range tree.order {
			tree.conditionalInto(cond, int32(r), 5)
			built += cond.NumNodes()
		}
	}
	if n := testing.AllocsPerRun(10, conditionals); n != 0 {
		t.Errorf("rebuilding conditional trees in a warm frame allocates %v allocs/run, want 0", n)
	}
	if built == 0 {
		t.Fatal("every conditional tree was empty; the test would prove nothing")
	}
}
