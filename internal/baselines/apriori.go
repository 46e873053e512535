package baselines

import (
	"sort"

	"macrobase/internal/fptree"
)

// Apriori mines all itemsets with weight >= minCount using classic
// level-wise candidate generation (the "AP" column of Table 5). Its
// repeated full-data scans per level are the cost FPGrowth avoids.
// canceled, when non-nil, is polled between levels so the benchmark
// harness can impose the paper's 20-minute DNF cutoff.
func Apriori(txs [][]int32, minCount float64, canceled func() bool) []fptree.Itemset {
	// Level 1: single item counts.
	counts := map[int32]float64{}
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	var out []fptree.Itemset
	var frequent [][]int32
	for it, c := range counts {
		if c >= minCount {
			frequent = append(frequent, []int32{it})
			out = append(out, fptree.Itemset{Items: []int32{it}, Count: c})
		}
	}
	sortSets(frequent)

	for level := 2; len(frequent) > 0; level++ {
		if canceled != nil && canceled() {
			return nil
		}
		candidates := generateCandidates(frequent)
		if len(candidates) == 0 {
			break
		}
		// Count candidates in one pass.
		counts := make([]float64, len(candidates))
		for _, tx := range txs {
			if len(tx) < level {
				continue
			}
			has := make(map[int32]bool, len(tx))
			for _, it := range tx {
				has[it] = true
			}
			for ci, cand := range candidates {
				all := true
				for _, it := range cand {
					if !has[it] {
						all = false
						break
					}
				}
				if all {
					counts[ci]++
				}
			}
		}
		frequent = frequent[:0]
		for ci, cand := range candidates {
			if counts[ci] >= minCount {
				frequent = append(frequent, cand)
				out = append(out, fptree.Itemset{Items: cand, Count: counts[ci]})
			}
		}
		sortSets(frequent)
	}
	return out
}

// generateCandidates joins frequent (k-1)-itemsets sharing a k-2
// prefix and prunes candidates with an infrequent subset.
func generateCandidates(frequent [][]int32) [][]int32 {
	freq := make(map[string]bool, len(frequent))
	for _, s := range frequent {
		freq[setKey(s)] = true
	}
	var out [][]int32
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			k := len(a)
			same := true
			for x := 0; x < k-1; x++ {
				if a[x] != b[x] {
					same = false
					break
				}
			}
			if !same {
				break // sorted: later j's share even less prefix
			}
			cand := make([]int32, k+1)
			copy(cand, a)
			last := b[k-1]
			if last <= a[k-1] {
				continue
			}
			cand[k] = last
			// Subset pruning.
			ok := true
			sub := make([]int32, k)
			for drop := 0; drop < k+1 && ok; drop++ {
				copy(sub, cand[:drop])
				copy(sub[drop:], cand[drop+1:])
				if !freq[setKey(sub)] {
					ok = false
				}
			}
			if ok {
				out = append(out, cand)
			}
		}
	}
	return out
}

func setKey(items []int32) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

func sortSets(sets [][]int32) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for x := 0; x < len(a) && x < len(b); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return len(a) < len(b)
	})
}
