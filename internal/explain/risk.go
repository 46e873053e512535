// Package explain implements MacroBase's explanation stage (paper §5):
// risk-ratio semantics with epidemiology confidence intervals, the
// cardinality-aware batch explainer (Algorithm 2), the
// FPGrowth-separate baseline it is compared against, and the streaming
// explainer built from AMC sketches and M-CPS-trees.
package explain

import (
	"math"
	"sort"

	"macrobase/internal/core"
	"macrobase/internal/stats"
)

// RiskRatio returns the relative risk of a combination occurring ao
// times among totalOut outliers and ai times among totalIn inliers
// (paper §5.1):
//
//	riskRatio = (ao/(ao+ai)) / (bo/(bo+bi))
//
// with bo = totalOut-ao and bi = totalIn-ai. Degenerate cases follow
// epidemiological convention: no exposed points yields 0; no unexposed
// outliers (bo == 0) with exposed outliers present yields +Inf.
func RiskRatio(ao, ai, totalOut, totalIn float64) float64 {
	if ao <= 0 {
		return 0
	}
	bo, bi := unexposed(ao, ai, totalOut, totalIn)
	exposed := ao / (ao + ai)
	if bo+bi <= 0 {
		return math.Inf(1)
	}
	unexposed := bo / (bo + bi)
	if unexposed <= 0 {
		return math.Inf(1)
	}
	return exposed / unexposed
}

// unexposed returns the outlier and inlier counts outside the
// combination, bo = totalOut-ao and bi = totalIn-ai, clamped at 0: an
// AMC overestimate (one sketch's, or a merged sketch's summed bound)
// can count a combination past its total.
func unexposed(ao, ai, totalOut, totalIn float64) (bo, bi float64) {
	return max(totalOut-ao, 0), max(totalIn-ai, 0)
}

// RiskRatioCI returns the 1-p confidence interval for the risk ratio
// using the standard log-scale (Katz) method from the epidemiology
// literature the paper cites (Morris & Gardner; paper Appendix B):
//
//	RR ×/÷ exp( z_p * sqrt(1/ao - 1/(ao+ai) + 1/bo - 1/(bo+bi)) )
//
// level is the nominal coverage (e.g. 0.95). The counts outside the
// combination are clamped as RiskRatio clamps them, so the interval
// always brackets the ratio. Degenerate counts yield the widest
// interval (0, +Inf).
func RiskRatioCI(ao, ai, totalOut, totalIn, level float64) core.Interval {
	rr := RiskRatio(ao, ai, totalOut, totalIn)
	bo, bi := unexposed(ao, ai, totalOut, totalIn)
	if ao <= 0 || bo <= 0 || math.IsInf(rr, 1) {
		return core.Interval{Lo: 0, Hi: math.Inf(1), Level: level}
	}
	se := math.Sqrt(1/ao - 1/(ao+ai) + 1/bo - 1/(bo+bi))
	z := stats.NormalQuantile(1 - (1-level)/2)
	f := math.Exp(z * se)
	return core.Interval{Lo: rr / f, Hi: rr * f, Level: level}
}

// Rank orders explanations for presentation: by risk ratio descending
// (the paper's default "degree of outlier-occurrence" ranking), then
// support descending, then fewer items, then lexical item order for
// determinism.
func Rank(exps []core.Explanation) {
	sort.Slice(exps, func(i, j int) bool {
		a, b := &exps[i], &exps[j]
		ra, rb := a.RiskRatio, b.RiskRatio
		// Treat +Inf as largest; NaN sorts last.
		switch {
		case ra != rb:
			if math.IsNaN(ra) {
				return false
			}
			if math.IsNaN(rb) {
				return true
			}
			return ra > rb
		case a.Support != b.Support:
			return a.Support > b.Support
		case len(a.ItemIDs) != len(b.ItemIDs):
			return len(a.ItemIDs) < len(b.ItemIDs)
		default:
			return lessItems(a.ItemIDs, b.ItemIDs)
		}
	})
}

func lessItems(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Jaccard returns the Jaccard similarity of two explanation sets,
// comparing attribute combinations as sets of item ids (Table 2's
// one-shot vs streaming comparison).
func Jaccard(a, b []core.Explanation) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	seen := make(map[string]bool, len(a))
	for i := range a {
		seen[itemKey(a[i].ItemIDs)] = true
	}
	inter := 0
	union := len(seen)
	for i := range b {
		k := itemKey(b[i].ItemIDs)
		if seen[k] {
			inter++
			seen[k] = false // count intersection once
		} else if _, dup := seen[k]; !dup {
			seen[k] = false
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// itemKey canonicalizes an item id slice (assumed sorted) as a string
// map key.
func itemKey(items []int32) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}
