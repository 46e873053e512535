package explain

import (
	"math"
	"slices"

	"macrobase/internal/core"
	"macrobase/internal/fptree"
)

// BatchConfig parameterizes batch explanation. Zero fields take the
// paper's §6 defaults: minimum support 0.1% of outliers and minimum
// risk ratio 3. Combinations of every size FPGrowth finds are
// reported; as in the paper, there is no bound on their size.
type BatchConfig struct {
	// MinSupport is the minimum fraction of outliers a combination
	// must cover (default 0.001).
	MinSupport float64
	// MinRiskRatio is the minimum relative risk (default 3).
	MinRiskRatio float64
	// Confidence, when positive (e.g. 0.95), attaches risk-ratio
	// confidence intervals to each explanation.
	Confidence float64
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MinSupport == 0 {
		c.MinSupport = 0.001
	}
	if c.MinRiskRatio == 0 {
		c.MinRiskRatio = 3
	}
	return c
}

// ExplainBatch is MDP's outlier-aware batch explainer (paper
// Algorithm 2). It exploits the cardinality imbalance between classes:
// stage 1 finds single attributes with sufficient outlier support and
// risk ratio (single-item counts are cheap); stage 2 mines an FP-tree
// built over only the outliers, restricted to stage-1 attributes;
// stage 3 counts the mined combinations over the inliers — via
// targeted itemset-support queries against an inlier prefix tree
// containing only stage-1 attributes — and filters by risk ratio.
//
// Stage 1 counts in slices indexed by attribute slot (idSlots), and each
// class's filtered transactions share one slab.
func ExplainBatch(labeled []core.LabeledPoint, cfg BatchConfig) []core.Explanation {
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
	slots := newIDSlots(labeled)

	// Stage 1a: count single attributes over the (small) outlier set.
	outCounts := make([]float64, slots.n)
	for i := range labeled {
		if labeled[i].Label != core.Outlier {
			continue
		}
		for _, a := range labeled[i].Attrs {
			outCounts[slots.of(a)]++
		}
	}
	supported := make([]bool, slots.n)
	anySupported := false
	for s, c := range outCounts {
		if c > 0 && c >= minCount {
			supported[s], anySupported = true, true
		}
	}
	if !anySupported {
		return nil
	}

	// Stage 1b: count only the supported attributes over the inliers.
	inCounts := make([]float64, slots.n)
	for i := range labeled {
		if labeled[i].Label != core.Inlier {
			continue
		}
		for _, a := range labeled[i].Attrs {
			if s := slots.of(a); supported[s] {
				inCounts[s]++
			}
		}
	}
	qualified := make([]bool, slots.n)
	anyQualified := false
	var outOcc, inOcc float64 // qualified occurrences: each class's slab
	for s, ao := range outCounts {
		if supported[s] && RiskRatio(ao, inCounts[s], totalOut, totalIn) >= cfg.MinRiskRatio {
			qualified[s], anyQualified = true, true
			outOcc += ao
			inOcc += inCounts[s]
		}
	}
	if !anyQualified {
		return nil
	}

	// Stage 2: mine supported combinations over the outliers using
	// only qualified attributes.
	outTxs := qualifiedTxs(labeled, core.Outlier, int(outOcc), &slots, qualified)
	outTree := fptree.Build(outTxs, nil, minCount)
	itemsets := outTree.Mine(minCount)

	// Stage 3: count each multi-attribute combination over the
	// inliers (single pass building a tree restricted to qualified
	// attributes, then targeted support queries) and filter by risk
	// ratio.
	needInlierTree := false
	for i := range itemsets {
		if len(itemsets[i].Items) > 1 {
			needInlierTree = true
			break
		}
	}
	var inTree *fptree.Tree
	if needInlierTree {
		inTree = fptree.Build(qualifiedTxs(labeled, core.Inlier, int(inOcc), &slots, qualified), nil, 0)
	}

	exps := make([]core.Explanation, 0, len(itemsets))
	for _, is := range itemsets {
		var ai float64
		if len(is.Items) == 1 {
			ai = inCounts[slots.of(is.Items[0])]
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

// qualifiedTxs returns, for each point labeled label, in order, the
// attributes whose slot is qualified, all in one slab of occ ids (the
// class's qualified occurrences). A point with none adds no transaction:
// an FP-tree inserts nothing for it.
func qualifiedTxs(labeled []core.LabeledPoint, label core.Label, occ int, slots *idSlots, qualified []bool) [][]int32 {
	slab := make([]int32, 0, occ)
	txs := make([][]int32, 0, occ)
	for i := range labeled {
		if labeled[i].Label != label {
			continue
		}
		from := len(slab)
		for _, a := range labeled[i].Attrs {
			if qualified[slots.of(a)] {
				slab = append(slab, a)
			}
		}
		if len(slab) > from {
			txs = append(txs, slab[from:len(slab):len(slab)])
		}
	}
	return txs
}

// idSlots numbers a labeled set's attribute ids densely, for counting
// in slices: an id's slot is id - lo when the ids span at most
// denseSpan(occurrences) values, negative ids included, and otherwise
// (a few ids far apart) its rank among the distinct ids. Every id of the
// set has a slot below n.
type idSlots struct {
	lo  int32
	n   int
	ids []int32 // the sorted distinct ids when slots are ranks, else nil
}

// denseSpan is the widest id range idSlots indexes directly for a set of
// occ attribute occurrences: a few counters an occurrence at most.
func denseSpan(occ int) int { return 4*occ + 1024 }

func newIDSlots(labeled []core.LabeledPoint) idSlots {
	lo, hi, occ := int32(math.MaxInt32), int32(math.MinInt32), 0
	for i := range labeled {
		for _, a := range labeled[i].Attrs {
			lo, hi = min(lo, a), max(hi, a)
		}
		occ += len(labeled[i].Attrs)
	}
	if occ == 0 {
		return idSlots{}
	}
	if span := int(hi) - int(lo) + 1; span <= denseSpan(occ) {
		return idSlots{lo: lo, n: span}
	}
	ids := make([]int32, 0, occ)
	for i := range labeled {
		ids = append(ids, labeled[i].Attrs...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return idSlots{n: len(ids), ids: ids}
}

// of is a's slot; a must be an id of the set.
func (s *idSlots) of(a int32) int {
	if s.ids == nil {
		return int(a) - int(s.lo)
	}
	i, _ := slices.BinarySearch(s.ids, a)
	return i
}

// attachCIs fills confidence intervals at level when it is positive.
func attachCIs(exps []core.Explanation, level float64) {
	if level <= 0 {
		return
	}
	for i := range exps {
		e := &exps[i]
		e.CI = RiskRatioCI(e.OutlierCount, e.InlierCount, e.TotalOutliers, e.TotalInliers, level)
	}
}

// ExplainSeparate is the unoptimized baseline of §6.3: it mines the
// inliers and outliers independently with FPGrowth at the same
// relative support and joins the results to compute risk ratios,
// wasting the work spent mining inlier-only patterns. It exists for
// the cardinality-aware speedup comparison; outputs match
// ExplainBatch's combinations whose inlier counterparts were mined.
func ExplainSeparate(labeled []core.LabeledPoint, cfg BatchConfig) []core.Explanation {
	cfg = cfg.withDefaults()
	var totalOut, totalIn float64
	var outTxs, inTxs [][]int32
	for i := range labeled {
		tx := make([]int32, len(labeled[i].Attrs))
		copy(tx, labeled[i].Attrs)
		if labeled[i].Label == core.Outlier {
			totalOut++
			outTxs = append(outTxs, tx)
		} else {
			totalIn++
			inTxs = append(inTxs, tx)
		}
	}
	if totalOut == 0 {
		return nil
	}
	outSets := fptree.Build(outTxs, nil, cfg.MinSupport*totalOut).Mine(cfg.MinSupport * totalOut)
	inSets := fptree.Build(inTxs, nil, cfg.MinSupport*totalIn).Mine(cfg.MinSupport * totalIn)
	inBySet := make(map[string]float64, len(inSets))
	for _, is := range inSets {
		inBySet[itemKey(is.Items)] = is.Count
	}
	var exps []core.Explanation
	for _, is := range outSets {
		ai := inBySet[itemKey(is.Items)]
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
	Rank(exps)
	return exps
}
