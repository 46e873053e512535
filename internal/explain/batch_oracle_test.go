package explain

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/fptree"
)

// explainBatchMaps is ExplainBatch as it was before it counted in dense
// slot-indexed slices: stage 1 counts in maps keyed by id, and every
// filtered transaction is its own allocation. It is the oracle the dense
// explainer is held to.
func explainBatchMaps(labeled []core.LabeledPoint, cfg BatchConfig) []core.Explanation {
	cfg = cfg.withDefaults()

	var totalOut, totalIn float64
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			totalOut++
		} else {
			totalIn++
		}
	}
	if totalOut == 0 {
		return nil
	}
	minCount := cfg.MinSupport * totalOut

	outCounts := make(map[int32]float64)
	for i := range labeled {
		if labeled[i].Label != core.Outlier {
			continue
		}
		for _, a := range labeled[i].Attrs {
			outCounts[a]++
		}
	}
	supported := make(map[int32]float64, len(outCounts))
	for a, c := range outCounts {
		if c >= minCount {
			supported[a] = c
		}
	}
	if len(supported) == 0 {
		return nil
	}

	inCounts := make(map[int32]float64, len(supported))
	for i := range labeled {
		if labeled[i].Label != core.Inlier {
			continue
		}
		for _, a := range labeled[i].Attrs {
			if _, ok := supported[a]; ok {
				inCounts[a]++
			}
		}
	}
	qualified := make(map[int32]bool, len(supported))
	for a, ao := range supported {
		if RiskRatio(ao, inCounts[a], totalOut, totalIn) >= cfg.MinRiskRatio {
			qualified[a] = true
		}
	}
	if len(qualified) == 0 {
		return nil
	}

	filtered := make([]int32, 0, 8)
	outTxs := make([][]int32, 0, int(totalOut))
	for i := range labeled {
		if labeled[i].Label != core.Outlier {
			continue
		}
		filtered = filtered[:0]
		for _, a := range labeled[i].Attrs {
			if qualified[a] {
				filtered = append(filtered, a)
			}
		}
		tx := make([]int32, len(filtered))
		copy(tx, filtered)
		outTxs = append(outTxs, tx)
	}
	outTree := fptree.Build(outTxs, nil, minCount)
	itemsets := outTree.Mine(minCount)

	needInlierTree := false
	for i := range itemsets {
		if len(itemsets[i].Items) > 1 {
			needInlierTree = true
			break
		}
	}
	var inTree *fptree.Tree
	if needInlierTree {
		inTxs := make([][]int32, 0, int(totalIn))
		for i := range labeled {
			if labeled[i].Label != core.Inlier {
				continue
			}
			filtered = filtered[:0]
			for _, a := range labeled[i].Attrs {
				if qualified[a] {
					filtered = append(filtered, a)
				}
			}
			if len(filtered) == 0 {
				continue
			}
			tx := make([]int32, len(filtered))
			copy(tx, filtered)
			inTxs = append(inTxs, tx)
		}
		inTree = fptree.Build(inTxs, nil, 0)
	}

	exps := make([]core.Explanation, 0, len(itemsets))
	for _, is := range itemsets {
		var ai float64
		if len(is.Items) == 1 {
			ai = inCounts[is.Items[0]]
		} else {
			ai = inTree.ItemsetSupport(is.Items)
		}
		rr := RiskRatio(is.Count, ai, totalOut, totalIn)
		if rr < cfg.MinRiskRatio {
			continue
		}
		exps = append(exps, core.Explanation{
			ItemIDs:       is.Items,
			Support:       is.Count / totalOut,
			RiskRatio:     rr,
			OutlierCount:  is.Count,
			InlierCount:   ai,
			TotalOutliers: totalOut,
			TotalInliers:  totalIn,
		})
	}
	attachCIs(exps, cfg.Confidence)
	Rank(exps)
	return exps
}

// randomLabeled draws n points of up to four attributes each from a
// vocabulary of vocab ids, id = base + stride*k, with a planted
// attribute pair among the outliers. outRate of the points are outliers;
// a few carry a label that is neither class.
func randomLabeled(rng *rand.Rand, n, vocab int, base, stride int32, outRate float64) []core.LabeledPoint {
	id := func(k int) int32 { return base + stride*int32(k) }
	labeled := make([]core.LabeledPoint, n)
	for i := range labeled {
		lp := &labeled[i]
		lp.Label = core.Inlier
		if rng.Float64() < outRate {
			lp.Label = core.Outlier
		} else if rng.IntN(50) == 0 {
			lp.Label = 2
		}
		for c := 0; c < rng.IntN(5); c++ {
			lp.Attrs = append(lp.Attrs, id(c*vocab/4+rng.IntN(max(1, vocab/4))))
		}
		if lp.Label == core.Outlier && rng.IntN(2) == 0 {
			lp.Attrs = append(lp.Attrs, id(vocab), id(vocab+1))
		}
	}
	return labeled
}

// TestExplainBatchMatchesMapOracle holds the dense explainer to the map
// version over random labeled sets — empty, all outliers, no outliers,
// negative ids, ids far apart (ranked slots), small vocabularies whose
// counts tie — at several supports, ratios and confidence levels, down
// to whether an empty answer is nil or an empty slice.
func TestExplainBatchMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 107))
	cfgs := []BatchConfig{
		{}, {MinSupport: 0.01, MinRiskRatio: 1}, {MinSupport: 0.2, MinRiskRatio: 3, Confidence: 0.95},
		{MinSupport: 0.5, MinRiskRatio: 0.5}, {MinSupport: -1, MinRiskRatio: -1}, {MinSupport: 1, MinRiskRatio: 1e9},
	}
	for _, tc := range []struct {
		name         string
		n, vocab     int
		base, stride int32
		outRate      float64
	}{
		{"empty", 0, 10, 0, 1, 0.1},
		{"one point", 1, 3, 0, 1, 1},
		{"dense", 2000, 40, 0, 1, 0.05},
		{"all outliers", 300, 20, 0, 1, 1},
		{"no outliers", 300, 20, 0, 1, 0},
		{"tied counts", 400, 4, 0, 1, 0.5},
		{"negative ids", 800, 30, -20, 1, 0.1},
		{"all negative ids", 500, 16, -100, 3, 0.2},
		{"ids far apart", 600, 30, 7, 5_000, 0.1},
		{"offset ids", 600, 30, 100_000, 1, 0.1},
	} {
		for rep := 0; rep < 5; rep++ {
			labeled := randomLabeled(rng, tc.n, tc.vocab, tc.base, tc.stride, tc.outRate)
			for _, cfg := range cfgs {
				got, want := ExplainBatch(labeled, cfg), explainBatchMaps(labeled, cfg)
				if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
					t.Fatalf("%s rep %d %+v:\ndense %s\nmaps  %s", tc.name, rep, cfg, g, w)
				}
			}
		}
	}
	// Outliers without attributes support nothing, at any threshold,
	// although the inliers carry attributes.
	bare := []core.LabeledPoint{
		{Label: core.Outlier}, {Label: core.Outlier},
		{Point: core.Point{Attrs: []int32{0, 1}}}, {Point: core.Point{Attrs: []int32{1}}},
	}
	for _, cfg := range cfgs {
		if got, want := ExplainBatch(bare, cfg), explainBatchMaps(bare, cfg); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("bare outliers %+v: dense %#v, maps %#v", cfg, got, want)
		}
	}
}

// TestIDSlots: ids spanning few values index directly, negative ones
// included; ids far apart take their rank. Every id has a distinct slot
// below n either way.
func TestIDSlots(t *testing.T) {
	for _, tc := range []struct {
		ids    []int32
		ranked bool
	}{
		{[]int32{0, 1, 2}, false},
		{[]int32{-5, 3, -5, 0}, false},
		{[]int32{1 << 30, -1 << 30, 7}, true},
	} {
		s := newIDSlots([]core.LabeledPoint{{Point: core.Point{Attrs: tc.ids}}})
		if (s.ids != nil) != tc.ranked {
			t.Errorf("%v: ranked %v", tc.ids, s.ids != nil)
		}
		seen := map[int]int32{}
		for _, a := range tc.ids {
			k := s.of(a)
			if k < 0 || k >= s.n {
				t.Fatalf("%v: id %d has slot %d of %d", tc.ids, a, k, s.n)
			}
			if b, ok := seen[k]; ok && b != a {
				t.Fatalf("%v: ids %d and %d share slot %d", tc.ids, a, b, k)
			}
			seen[k] = a
		}
	}
}
