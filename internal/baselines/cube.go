package baselines

import (
	"sort"

	"macrobase/internal/core"
	"macrobase/internal/explain"
)

// CubeConfig parameterizes the data-cubing explainer.
type CubeConfig struct {
	MinSupport   float64
	MinRiskRatio float64
	// Canceled, when non-nil, is polled periodically to allow the
	// harness to abandon runs (the paper's DNF cutoff).
	Canceled func() bool
}

// Cube is the data-cubing explanation strategy suggested by Roy &
// Suciu (Table 5 "Cube"): it materializes counts for every attribute
// combination of every point — 2^d cells per point for d attribute
// columns — over both classes, then filters by support and risk
// ratio. Exhaustive and simple, but the per-point cell enumeration is
// exactly the cost MacroBase's outlier-aware pruning avoids.
func Cube(labeled []core.LabeledPoint, cfg CubeConfig) []core.Explanation {
	if cfg.MinSupport == 0 {
		cfg.MinSupport = 0.001
	}
	if cfg.MinRiskRatio == 0 {
		cfg.MinRiskRatio = 3
	}
	type cell struct{ out, in float64 }
	cells := map[string]*cell{}
	sets := map[string][]int32{}
	var totalOut, totalIn float64

	var subsets func(attrs []int32, start int, cur []int32, visit func([]int32))
	subsets = func(attrs []int32, start int, cur []int32, visit func([]int32)) {
		if len(cur) > 0 {
			visit(cur)
		}
		for i := start; i < len(attrs); i++ {
			subsets(attrs, i+1, append(cur, attrs[i]), visit)
		}
	}

	buf := make([]int32, 0, 8)
	for i := range labeled {
		if cfg.Canceled != nil && i%1024 == 0 && cfg.Canceled() {
			return nil
		}
		p := &labeled[i]
		attrs := append(buf[:0], p.Attrs...)
		sort.Slice(attrs, func(a, b int) bool { return attrs[a] < attrs[b] })
		out := p.Label == core.Outlier
		if out {
			totalOut++
		} else {
			totalIn++
		}
		subsets(attrs, 0, nil, func(s []int32) {
			k := setKey(s)
			c := cells[k]
			if c == nil {
				c = &cell{}
				cells[k] = c
				cp := make([]int32, len(s))
				copy(cp, s)
				sets[k] = cp
			}
			if out {
				c.out++
			} else {
				c.in++
			}
		})
	}
	if totalOut == 0 {
		return nil
	}
	minCount := cfg.MinSupport * totalOut
	var exps []core.Explanation
	for k, c := range cells {
		if c.out < minCount {
			continue
		}
		rr := explain.RiskRatio(c.out, c.in, totalOut, totalIn)
		if rr < cfg.MinRiskRatio {
			continue
		}
		exps = append(exps, core.Explanation{
			ItemIDs:       sets[k],
			Support:       c.out / totalOut,
			RiskRatio:     rr,
			OutlierCount:  c.out,
			InlierCount:   c.in,
			TotalOutliers: totalOut,
			TotalInliers:  totalIn,
		})
	}
	explain.Rank(exps)
	return exps
}
