package explain

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"macrobase/internal/core"
)

// The explain fuzz target drives a random interleaving of outlier and
// inlier inserts, decay-tick restructures, and polls against a
// brute-force model at every poll: flat weighted multisets of
// outlier/inlier transactions to which the M-CPS semantics (decay,
// frequent-set projection, insert filtering) are applied directly, from
// which the expected explanation set — itemsets, outlier counts, inlier
// counts — is enumerated by exhaustive subset counting. Counting is
// fully independent of the trees; only the risk-ratio scoring helper is
// shared.
//
// Decay is restricted to retain = 0.5 and MinSupport to a power of
// two, so every weight, total, and threshold stays an exactly
// representable dyadic rational and the model agrees with the trees on
// every >= comparison without tolerance games.

var fuzzCfg = StreamingConfig{MinSupport: 0.125, MinRiskRatio: 1.5, DecayRate: 0.5}

// fuzzTx mirrors one stored transaction with its decayed weight.
type fuzzTx struct {
	items []int32
	w     float64
}

// streamModel is the brute-force model of one Streaming explainer
// configured as cfg.
type streamModel struct {
	cfg               StreamingConfig
	outTxs, inTxs     []fuzzTx
	totalOut, totalIn float64
	outCnt, inCnt     map[int32]float64 // sketch-side per-item counts (never projected)
	allowed           map[int32]bool    // nil = keep-all (no decay yet)
}

func newStreamModel(cfg StreamingConfig) *streamModel {
	return &streamModel{cfg: cfg, outCnt: map[int32]float64{}, inCnt: map[int32]float64{}}
}

func (m *streamModel) insert(items []int32, outlier bool) {
	cnt, txs, total := m.inCnt, &m.inTxs, &m.totalIn
	if outlier {
		cnt, txs, total = m.outCnt, &m.outTxs, &m.totalOut
	}
	*total++
	kept := make([]int32, 0, len(items))
	for _, it := range items {
		cnt[it]++
		if m.allowed == nil || m.allowed[it] {
			kept = append(kept, it)
		}
	}
	if len(kept) > 0 {
		*txs = append(*txs, fuzzTx{items: kept, w: 1})
	}
}

// decay mirrors Streaming.Decay: damp everything, recompute the
// outlier-frequent attribute set from the sketch-side counts, and
// project both transaction multisets onto it.
func (m *streamModel) decay() {
	retain := 1 - m.cfg.DecayRate
	m.totalOut *= retain
	m.totalIn *= retain
	for it := range m.outCnt {
		m.outCnt[it] *= retain
	}
	for it := range m.inCnt {
		m.inCnt[it] *= retain
	}
	for i := range m.outTxs {
		m.outTxs[i].w *= retain
	}
	for i := range m.inTxs {
		m.inTxs[i].w *= retain
	}
	minOut := m.cfg.MinSupport * m.totalOut
	m.allowed = map[int32]bool{}
	for it, c := range m.outCnt {
		if c >= minOut {
			m.allowed[it] = true
		}
	}
	project := func(txs []fuzzTx) []fuzzTx {
		var kept []fuzzTx
		for _, tx := range txs {
			var proj []int32
			for _, it := range tx.items {
				if m.allowed[it] {
					proj = append(proj, it)
				}
			}
			if len(proj) > 0 {
				kept = append(kept, fuzzTx{items: proj, w: tx.w})
			}
		}
		return kept
	}
	m.outTxs = project(m.outTxs)
	m.inTxs = project(m.inTxs)
}

// support counts the weighted transactions containing every item of q.
func support(txs []fuzzTx, q []int32) float64 {
	w := 0.0
	for _, tx := range txs {
		all := true
		for _, it := range q {
			if !slices.Contains(tx.items, it) {
				all = false
				break
			}
		}
		if all {
			w += tx.w
		}
	}
	return w
}

// expected enumerates the model's explanation set: single attributes
// from the sketch-side counts, combinations by exhaustive subset
// counting over the projected outlier transactions.
func (m *streamModel) expected() map[string][2]float64 {
	want := map[string][2]float64{}
	if m.totalOut <= 0 {
		return want
	}
	minCount := m.cfg.MinSupport * m.totalOut
	qualified := map[int32]bool{}
	for it, ao := range m.outCnt {
		if ao < minCount {
			continue
		}
		ai := m.inCnt[it]
		if RiskRatio(ao, ai, m.totalOut, m.totalIn) < m.cfg.MinRiskRatio {
			continue
		}
		qualified[it] = true
		want[itemKey([]int32{it})] = [2]float64{ao, ai}
	}
	seen := map[int32]bool{}
	for _, tx := range m.outTxs {
		for _, it := range tx.items {
			seen[it] = true
		}
	}
	var universe []int32
	for it := range seen {
		universe = append(universe, it)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) > 0 && support(m.outTxs, cur) < minCount {
			return // anti-monotone prune
		}
		if len(cur) >= 2 {
			ok := true
			for _, it := range cur {
				if !qualified[it] {
					ok = false
					break
				}
			}
			if ok {
				ao := support(m.outTxs, cur)
				ai := support(m.inTxs, cur)
				if RiskRatio(ao, ai, m.totalOut, m.totalIn) >= m.cfg.MinRiskRatio {
					want[itemKey(slices.Clone(cur))] = [2]float64{ao, ai}
				}
			}
		}
		for i := start; i < len(universe); i++ {
			rec(i+1, append(cur, universe[i]))
		}
	}
	rec(0, nil)
	return want
}

// mergeModels is the brute-force model of a merged explainer: the
// union of the shards' projected transaction multisets, with sketch
// counts and totals summed.
func mergeModels(shards []*streamModel) *streamModel {
	m := newStreamModel(shards[0].cfg)
	for _, sh := range shards {
		m.outTxs = append(m.outTxs, sh.outTxs...)
		m.inTxs = append(m.inTxs, sh.inTxs...)
		m.totalOut += sh.totalOut
		m.totalIn += sh.totalIn
		for it, c := range sh.outCnt {
			m.outCnt[it] += c
		}
		for it, c := range sh.inCnt {
			m.inCnt[it] += c
		}
	}
	return m
}

// diffModel compares one poll's explanations with the model's expected
// set and describes the first mismatch ("" = none).
func diffModel(got []core.Explanation, m *streamModel) string {
	want := m.expected()
	if len(got) != len(want) {
		return fmt.Sprintf("%d explanations, model %d\ngot %v\nmodel %v", len(got), len(want), got, want)
	}
	for j := range got {
		e := &got[j]
		ct, ok := want[itemKey(e.ItemIDs)]
		if !ok {
			return fmt.Sprintf("unexpected explanation %v", e)
		}
		if math.Abs(e.OutlierCount-ct[0]) > 1e-9 || math.Abs(e.InlierCount-ct[1]) > 1e-9 {
			return fmt.Sprintf("%v counts (%v, %v), model (%v, %v)",
				e.ItemIDs, e.OutlierCount, e.InlierCount, ct[0], ct[1])
		}
		if math.Abs(e.TotalOutliers-m.totalOut) > 1e-9 || math.Abs(e.TotalInliers-m.totalIn) > 1e-9 {
			return fmt.Sprintf("totals (%v, %v), model (%v, %v)",
				e.TotalOutliers, e.TotalInliers, m.totalOut, m.totalIn)
		}
	}
	return ""
}

// runStreamScript decodes and replays one fuzz script against an
// explainer and the brute-force model, failing on the first
// divergence. Op encoding, one leading opcode byte each:
//
//	0x00-0x5F  insert outlier: following bytes % 9 are the attrs
//	           until a byte >= 0xF0 (possibly none: attribute-less)
//	0x60-0x9F  insert inlier: same shape
//	0xA0-0xCF  decay tick
//	0xD0-0xFF  poll + compare
func runStreamScript(t *testing.T, data []byte) {
	t.Helper()
	s := NewStreaming(fuzzCfg)
	model := newStreamModel(fuzzCfg)
	inserts, decays, polls := 0, 0, 0
	for i := 0; i < len(data) && inserts < 48 && decays < 12 && polls < 10; i++ {
		op := data[i]
		switch {
		case op < 0xA0: // insert
			seen := map[int32]bool{}
			for i++; i < len(data) && data[i] < 0xF0 && len(seen) < 6; i++ {
				seen[int32(data[i]%9)] = true
			}
			attrs := make([]int32, 0, len(seen))
			for it := range seen {
				attrs = append(attrs, it)
			}
			slices.Sort(attrs)
			outlier := op < 0x60
			pt := core.LabeledPoint{Point: core.Point{Attrs: attrs}, Label: core.Inlier}
			if outlier {
				pt.Label = core.Outlier
			}
			s.Consume([]core.LabeledPoint{pt})
			model.insert(attrs, outlier)
			inserts++
		case op < 0xD0: // decay
			s.Decay()
			model.decay()
			decays++
		default: // poll + compare
			polls++
			if msg := diffModel(s.Explanations(), model); msg != "" {
				t.Fatalf("poll: %s\nops %x", msg, data)
			}
		}
	}
}

func FuzzStreamingDelta(f *testing.F) {
	for _, seed := range fuzzSeedScripts() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runStreamScript(t, data)
	})
}

// fuzzSeedScripts are the starting corpus, crafted to reach the shapes
// random mutation finds slowly: steady outlier drift between polls,
// decay restructures between polls, an inlier-heavy combination the
// risk-ratio filter rejects, and a frequent set pruned to nothing and
// regrown.
func fuzzSeedScripts() [][]byte {
	const (
		out, in, decay, poll, end = 0x01, 0x61, 0xA0, 0xD0, 0xFF
	)
	var seeds [][]byte
	// Steady drift: outliers sharing a hot pair arrive between polls.
	drift := []byte{}
	for i := 0; i < 6; i++ {
		drift = append(drift, out, 1, 2, byte(3+i%3), end)
	}
	drift = append(drift, in, 3, end, in, 4, end, poll)
	for i := 0; i < 3; i++ {
		drift = append(drift, out, 1, 2, end, out, byte(1+i%2), 5, end, poll)
	}
	drift = append(drift, poll) // repeated poll over unmoved state
	seeds = append(seeds, drift)
	// Decay between polls: the restructure rewrites both trees, and
	// drift follows it.
	decayFallback := []byte{
		out, 1, 2, end, out, 1, 2, end, out, 1, 2, 3, end, out, 2, 3, end,
		in, 4, end, poll,
		decay, poll,
		out, 1, 2, end, poll,
	}
	seeds = append(seeds, decayFallback)
	// Inlier-heavy pair: {1,2} rides along in many inliers, so its
	// inlier count sinks its risk ratio; singles stay qualified
	// because plenty of outliers carry 1 and 2 alone.
	inlierHeavy := []byte{
		out, 1, 2, end, out, 1, 2, end, out, 1, 3, end, out, 2, 3, end,
		in, 1, 2, end, in, 1, 2, end, in, 1, 2, end,
		in, 4, end, in, 5, end, in, 6, end, in, 7, end,
		poll,
		out, 1, 2, end, poll,
	}
	seeds = append(seeds, inlierHeavy)
	// Prune-to-empty and regrow: a decay with thin totals empties the
	// frequent set, then fresh inserts rebuild it from nothing.
	regrow := []byte{
		out, 1, 2, end, in, 3, end, poll,
		decay, decay, decay, poll,
		out, 4, 5, end, out, 4, 5, end, poll,
	}
	seeds = append(seeds, regrow)
	return seeds
}
