package explain

import (
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

	// Stage 1a: count single attributes over the (small) outlier set.
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

	// Stage 1b: count only the supported attributes over the inliers.
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

	// Stage 2: mine supported combinations over the outliers using
	// only qualified attributes.
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
