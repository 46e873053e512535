package baselines

import (
	"math"
	"sort"

	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// XRayConfig parameterizes the Data X-Ray-style explainer.
type XRayConfig struct {
	// Canceled is polled during candidate enumeration.
	Canceled func() bool
}

const (
	// xrayAlpha weighs feature-set size against error in the cost
	// function.
	xrayAlpha = 1
	// xrayMaxFeatures bounds the returned cover.
	xrayMaxFeatures = 32
	// xrayMaxItems bounds the size of candidate conjunctions explored
	// per refinement. With flat attributes X-Ray considers all
	// combinations unless its stopping criteria are met — the
	// behavior the paper's authors confirmed and the reason it DNFs
	// on wide datasets in Table 5.
	xrayMaxItems = 3
)

// XRay is a Data X-Ray-inspired diagnoser (Wang, Dong & Meliou;
// Table 5 "XR"): it greedily builds a minimum-cost cover of the
// outlier set using attribute-value conjunctions ("features"),
// trading the number of features against the false positives and
// false negatives they incur. On MacroBase's flat attribute spaces the
// candidate pool is the cross product of attribute values, explored
// breadth-first up to xrayMaxItems, which is why wide datasets blow up.
func XRay(labeled []core.LabeledPoint, cfg XRayConfig) []core.Explanation {
	var totalOut, totalIn float64
	var outIdx []int
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			totalOut++
			outIdx = append(outIdx, i)
		} else {
			totalIn++
		}
	}
	if totalOut == 0 {
		return nil
	}

	// Enumerate candidate conjunctions up to xrayMaxItems over the
	// outliers, with their class counts (inlier counts via a second
	// pass).
	type stat struct{ out, in float64 }
	cand := map[string]*stat{}
	sets := map[string][]int32{}
	collect := func(p *core.LabeledPoint, isOut bool) bool {
		attrs := append([]int32(nil), p.Attrs...)
		sort.Slice(attrs, func(a, b int) bool { return attrs[a] < attrs[b] })
		var rec func(start int, cur []int32) bool
		rec = func(start int, cur []int32) bool {
			if cfg.Canceled != nil && cfg.Canceled() {
				return false
			}
			if len(cur) > 0 {
				k := setKey(cur)
				s := cand[k]
				if s == nil {
					if !isOut {
						// Candidates are the subsets of outlier
						// transactions, which are closed downward: if
						// cur is absent, so is every superset. Prune.
						return true
					}
					s = &stat{}
					cand[k] = s
					cp := make([]int32, len(cur))
					copy(cp, cur)
					sets[k] = cp
				}
				if isOut {
					s.out++
				} else {
					s.in++
				}
			}
			if len(cur) >= xrayMaxItems {
				return true
			}
			for i := start; i < len(attrs); i++ {
				if !rec(i+1, append(cur, attrs[i])) {
					return false
				}
			}
			return true
		}
		return rec(0, nil)
	}
	for _, i := range outIdx {
		if !collect(&labeled[i], true) {
			return nil
		}
	}
	for i := range labeled {
		if labeled[i].Label == core.Inlier {
			if !collect(&labeled[i], false) {
				return nil
			}
		}
	}

	// Greedy cover: repeatedly take the feature with the best
	// cost-reduction ratio: covers many uncovered outliers with few
	// inliers (cost alpha + inlier hits).
	covered := make([]bool, len(labeled))
	remaining := totalOut
	var exps []core.Explanation
	for len(exps) < xrayMaxFeatures && remaining > 0 {
		if cfg.Canceled != nil && cfg.Canceled() {
			return nil
		}
		bestKey := ""
		bestScore := math.Inf(-1)
		for k, s := range cand {
			if s.out <= 0 {
				continue
			}
			score := s.out / (xrayAlpha + s.in)
			if score > bestScore {
				bestScore = score
				bestKey = k
			}
		}
		if bestKey == "" {
			break
		}
		feat := sets[bestKey]
		st := cand[bestKey]
		rr := explain.RiskRatio(st.out, st.in, totalOut, totalIn)
		exps = append(exps, core.Explanation{
			ItemIDs:       feat,
			Support:       st.out / totalOut,
			RiskRatio:     rr,
			OutlierCount:  st.out,
			InlierCount:   st.in,
			TotalOutliers: totalOut,
			TotalInliers:  totalIn,
		})
		delete(cand, bestKey)
		// Mark covered outliers and discount other candidates'
		// coverage of them.
		featSet := make(map[int32]bool, len(feat))
		for _, f := range feat {
			featSet[f] = true
		}
		for _, i := range outIdx {
			if covered[i] {
				continue
			}
			n := 0
			for _, a := range labeled[i].Attrs {
				if featSet[a] {
					n++
				}
			}
			if n == len(feat) {
				covered[i] = true
				remaining--
				// Discount this outlier from every candidate it
				// supports (approximate: decrement matching subsets).
				attrs := append([]int32(nil), labeled[i].Attrs...)
				sort.Slice(attrs, func(a, b int) bool { return attrs[a] < attrs[b] })
				var rec func(start int, cur []int32)
				rec = func(start int, cur []int32) {
					if len(cur) > 0 {
						if s := cand[setKey(cur)]; s != nil {
							s.out--
						}
					}
					if len(cur) >= xrayMaxItems {
						return
					}
					for x := start; x < len(attrs); x++ {
						rec(x+1, append(cur, attrs[x]))
					}
				}
				rec(0, nil)
			}
		}
	}
	explain.Rank(exps)
	return exps
}
