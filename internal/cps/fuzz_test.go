package cps

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// The cps fuzz target drives a random insert → restructure → mine op
// sequence decoded from raw bytes against a brute-force model: a flat
// multiset of weighted transactions to which the M-CPS semantics
// (decay, frequent-set projection, insert filtering) are applied
// directly. Decay factors are restricted to {1, 0.5} so every weight
// stays an exactly representable dyadic rational and the oracle
// comparison needs no float tolerance beyond summation noise.

// modelTx mirrors one stored transaction.
type modelTx struct {
	items []int32
	w     float64
}

type treeModel struct {
	txs     []modelTx
	allowed map[int32]bool // nil = no filter (pre-restructure / keep-all)
}

func (m *treeModel) insert(tx []int32) {
	kept := make([]int32, 0, len(tx))
	for _, it := range tx {
		if m.allowed == nil || m.allowed[it] {
			kept = append(kept, it)
		}
	}
	if len(kept) > 0 {
		m.txs = append(m.txs, modelTx{items: kept, w: 1})
	}
}

// clone deep-copies the model, the counterpart of Tree.Clone.
func (m *treeModel) clone() *treeModel {
	c := &treeModel{txs: append([]modelTx(nil), m.txs...)}
	if m.allowed != nil {
		c.allowed = map[int32]bool{}
		for it := range m.allowed {
			c.allowed[it] = true
		}
	}
	return c
}

// merge applies Tree.Merge to the model: src's transactions join
// unfiltered, and the insert filters union (no filter on either side
// means no filter).
func (m *treeModel) merge(src *treeModel) {
	m.txs = append(m.txs, src.txs...)
	if m.allowed == nil {
		return
	}
	if src.allowed == nil {
		m.allowed = nil
		return
	}
	for it := range src.allowed {
		m.allowed[it] = true
	}
}

// counts returns the per-item weighted support of the model.
func (m *treeModel) counts() map[int32]float64 {
	c := map[int32]float64{}
	for _, tx := range m.txs {
		for _, it := range tx.items {
			c[it] += tx.w
		}
	}
	return c
}

// restructure applies the M-CPS window-boundary maintenance to the
// model: decay, then keep only items whose decayed support clears
// threshold, projecting every stored transaction onto that set.
// threshold < 0 means keep-all (the CPS baseline shape), which also
// clears the insert filter.
func (m *treeModel) restructure(threshold, retain float64) ([]int32, []float64) {
	for i := range m.txs {
		m.txs[i].w *= retain
	}
	c := m.counts()
	if threshold < 0 {
		m.allowed = nil
		return nil, nil
	}
	m.allowed = map[int32]bool{}
	for it, w := range c {
		if w >= threshold {
			m.allowed[it] = true
		}
	}
	var kept []modelTx
	for _, tx := range m.txs {
		var proj []int32
		for _, it := range tx.items {
			if m.allowed[it] {
				proj = append(proj, it)
			}
		}
		if len(proj) > 0 {
			kept = append(kept, modelTx{items: proj, w: tx.w})
		}
	}
	m.txs = kept
	items := make([]int32, 0, len(m.allowed))
	for it := range m.allowed {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	counts := make([]float64, len(items))
	for i, it := range items {
		counts[i] = c[it]
	}
	return items, counts
}

// bruteMine enumerates every itemset with weighted support >= minCount
// over the model, with anti-monotone pruning.
func (m *treeModel) bruteMine(minCount float64) map[string]float64 {
	c := m.counts()
	var universe []int32
	for it := range c {
		universe = append(universe, it)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	out := map[string]float64{}
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) > 0 {
			w := 0.0
			for _, tx := range m.txs {
				has := map[int32]bool{}
				for _, it := range tx.items {
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
					w += tx.w
				}
			}
			if w >= minCount {
				out[key(cur)] = w
			} else {
				return
			}
		}
		for i := start; i < len(universe); i++ {
			rec(i+1, append(cur, universe[i]))
		}
	}
	rec(0, nil)
	return out
}

// byteTx expands one script byte into a transaction of up to three
// distinct items, deep enough to land below the root's children.
func byteTx(b byte) []int32 {
	var tx []int32
	for _, it := range []int32{int32(b % 9), int32((b >> 2) % 9), int32((b >> 4) % 9)} {
		if !slices.Contains(tx, it) {
			tx = append(tx, it)
		}
	}
	slices.Sort(tx)
	return tx
}

// checkMine mines the tree and requires the model's brute-force answer,
// then cross-checks the support query path on every mined itemset.
func checkMine(t *testing.T, tree *Tree, model *treeModel, minCount float64, data []byte) {
	t.Helper()
	mined := tree.Mine(minCount, 0)
	got := map[string]float64{}
	for _, is := range mined {
		got[key(is.Items)] = is.Count
	}
	want := model.bruteMine(minCount)
	if len(got) != len(want) {
		t.Fatalf("mine(%v): %d itemsets, model %d\ntree %v\nmodel %v\nops %x", minCount, len(got), len(want), got, want, data)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Abs(g-w) > 1e-9 {
			t.Fatalf("mine(%v): itemset %s = %v, model %v (ops %x)", minCount, k, g, w, data)
		}
	}
	for _, is := range mined {
		if s := tree.ItemsetSupport(is.Items); math.Abs(s-is.Count) > 1e-9 {
			t.Fatalf("ItemsetSupport(%v) = %v, mined %v (ops %x)", is.Items, s, is.Count, data)
		}
	}
}

// FuzzTreeOps decodes an op script from the fuzz input and checks the
// M-CPS-tree against the model after every mine op. Op encoding, one
// leading opcode byte each:
//
//	0x00-0x9F  insert: following bytes % 9 are items until a byte >= 0xF0
//	0xA0-0xCF  restructure: next byte → threshold (opcode bit 4 set =
//	           keep-all) and retain (bit 0: 0.5, else 1)
//	0xD0-0xEF  mine + compare (next byte → minCount)
//	0xF0-0xF7  clone, then diverge: the next two bytes are byteTx
//	           transactions, the first inserted into the original, the
//	           second into the clone (whose arena has to rebuild its
//	           child index); both are mined and compared, the script
//	           continues on the clone when opcode bit 0 is set, and the
//	           other copy is kept as the next merge's source
//	0xF8-0xFF  merge into clone: the kept copy (the tree itself when
//	           there is none) is folded into a Clone of the tree, as a
//	           merged poll does; the script continues on the result
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0x01, 1, 2, 3, 0xFF, 0x02, 1, 2, 0xFF, 0xD0, 0x01})
	f.Add([]byte{0x01, 1, 2, 0xFF, 0xA1, 0x02, 0x03, 4, 5, 0xFF, 0xD1, 0x00})
	f.Add([]byte{0x05, 0, 1, 2, 3, 0xFF, 0xB0, 0x00, 0x01, 0, 1, 0xFF, 0xD0, 0x02, 0xA0, 0x01, 0xD2, 0x01})
	f.Add([]byte{0x01, 1, 2, 3, 4, 0xFF, 0xF1, 0x1B, 0xE4, 0x02, 1, 2, 5, 0xFF, 0xF8, 0xD0, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := NewMCPS()
		model := &treeModel{}
		var side *Tree // the other copy left by the last clone op
		var sideModel *treeModel
		lastEpoch := tree.Epoch()
		inserts, mines := 0, 0
		for i := 0; i < len(data) && inserts < 48 && mines < 12; i++ {
			op := data[i]
			switch {
			case op < 0xA0: // insert
				seen := map[int32]bool{}
				for i++; i < len(data) && data[i] < 0xF0 && len(seen) < 6; i++ {
					seen[int32(data[i]%9)] = true
				}
				if len(seen) == 0 {
					continue
				}
				tx := make([]int32, 0, len(seen))
				for it := range seen {
					tx = append(tx, it)
				}
				sort.Slice(tx, func(a, b int) bool { return tx[a] < tx[b] })
				tree.Insert(tx, 1)
				model.insert(tx)
				inserts++
			case op < 0xD0: // restructure
				if i+1 >= len(data) {
					break
				}
				i++
				retain := 1.0
				if op&1 == 1 {
					retain = 0.5
				}
				if op&0x10 != 0 {
					model.restructure(-1, retain)
					tree.Restructure(nil, nil, retain)
				} else {
					threshold := float64(1+int(data[i])%4) * 0.5
					items, counts := model.restructure(threshold, retain)
					if items == nil {
						items = []int32{} // empty frequent set prunes all; nil means keep-all
					}
					tree.Restructure(items, counts, retain)
				}
			case op < 0xF0: // mine + compare
				if i+1 >= len(data) {
					break
				}
				i++
				mines++
				checkMine(t, tree, model, float64(1+int(data[i])%4)*0.5, data)
			case op < 0xF8: // clone, then diverge
				if i+2 >= len(data) {
					break
				}
				c, cm := tree.Clone(), model.clone()
				tree.Insert(byteTx(data[i+1]), 1)
				model.insert(byteTx(data[i+1]))
				c.Insert(byteTx(data[i+2]), 1)
				cm.insert(byteTx(data[i+2]))
				i += 2
				inserts += 2
				mines += 2
				checkMine(t, tree, model, 1, data)
				checkMine(t, c, cm, 1, data)
				if op&1 == 1 {
					tree, model, c, cm = c, cm, tree, model
				}
				side, sideModel = c, cm
			default: // merge into clone
				src, srcModel := side, sideModel
				if src == nil {
					src, srcModel = tree, model
				}
				dst, dm := tree.Clone(), model.clone()
				dst.Merge(src)
				dm.merge(srcModel)
				tree, model = dst, dm
				mines++
				checkMine(t, tree, model, 1, data)
			}
			if e := tree.Epoch(); i < len(data) && e < lastEpoch {
				t.Fatalf("epoch went backwards: %d -> %d", lastEpoch, e)
			} else {
				lastEpoch = e
			}
		}
	})
}
