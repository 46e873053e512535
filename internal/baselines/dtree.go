package baselines

import (
	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// DTreeConfig parameterizes the decision-tree explainer.
type DTreeConfig struct {
	// MaxDepth bounds the tree (Table 5 uses 10 and 100).
	MaxDepth int
	// Canceled is polled between node expansions.
	Canceled func() bool
}

const (
	// dtreeMinLeaf is the minimum points per leaf.
	dtreeMinLeaf = 10
	// dtreeMinRiskRatio filters the reported leaf predicates.
	dtreeMinRiskRatio = 3
)

// DecisionTree is the failure-diagnosis explainer of Chen et al.
// (Table 5 "DT10"/"DT100"): a greedy binary tree over attribute
// equality predicates, trained to separate outliers from inliers; the
// predicate conjunctions along paths to outlier-majority leaves are
// reported as explanations. Each node scans every candidate
// (column, value) split — the per-level full-data scans are what make
// deep trees expensive.
func DecisionTree(labeled []core.LabeledPoint, cfg DTreeConfig) []core.Explanation {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	var totalOut, totalIn float64
	idx := make([]int, len(labeled))
	for i := range labeled {
		idx[i] = i
		if labeled[i].Label == core.Outlier {
			totalOut++
		} else {
			totalIn++
		}
	}
	if totalOut == 0 {
		return nil
	}
	var exps []core.Explanation
	var grow func(idx []int, path []int32, depth int)
	grow = func(idx []int, path []int32, depth int) {
		if cfg.Canceled != nil && cfg.Canceled() {
			return
		}
		var out, in float64
		for _, i := range idx {
			if labeled[i].Label == core.Outlier {
				out++
			} else {
				in++
			}
		}
		pure := out == 0 || in == 0
		if depth >= cfg.MaxDepth || len(idx) < 2*dtreeMinLeaf || pure {
			if out > in && len(path) > 0 {
				rr := explain.RiskRatio(out, in, totalOut, totalIn)
				if rr >= dtreeMinRiskRatio {
					items := make([]int32, len(path))
					copy(items, path)
					sortInt32(items)
					exps = append(exps, core.Explanation{
						ItemIDs:       items,
						Support:       out / totalOut,
						RiskRatio:     rr,
						OutlierCount:  out,
						InlierCount:   in,
						TotalOutliers: totalOut,
						TotalInliers:  totalIn,
					})
				}
			}
			return
		}
		// Find the (attr value) equality split with the best Gini
		// gain: one scan per node over all points and attributes.
		type split struct{ out, in float64 }
		cand := map[int32]*split{}
		for _, i := range idx {
			for _, a := range labeled[i].Attrs {
				s := cand[a]
				if s == nil {
					s = &split{}
					cand[a] = s
				}
				if labeled[i].Label == core.Outlier {
					s.out++
				} else {
					s.in++
				}
			}
		}
		total := out + in
		parentGini := gini(out, in)
		bestGain := 0.0
		var bestAttr int32 = -1
		for a, s := range cand {
			nLeft := s.out + s.in
			nRight := total - nLeft
			if nLeft < dtreeMinLeaf || nRight < dtreeMinLeaf {
				continue
			}
			gLeft := gini(s.out, s.in)
			gRight := gini(out-s.out, in-s.in)
			gain := parentGini - (nLeft*gLeft+nRight*gRight)/total
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestAttr = a
			}
		}
		if bestAttr < 0 {
			grow(idx, path, cfg.MaxDepth) // force leaf emission
			return
		}
		var left, right []int
		for _, i := range idx {
			hasAttr := false
			for _, a := range labeled[i].Attrs {
				if a == bestAttr {
					hasAttr = true
					break
				}
			}
			if hasAttr {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		grow(left, append(path, bestAttr), depth+1)
		grow(right, path, depth+1)
	}
	grow(idx, nil, 0)
	explain.Rank(exps)
	return exps
}

func gini(a, b float64) float64 {
	n := a + b
	if n == 0 {
		return 0
	}
	pa, pb := a/n, b/n
	return 1 - pa*pa - pb*pb
}

func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
