package experiments

import (
	"math"

	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/stats"
)

// FastExplanation is one single-attribute explanation from the
// fastpath kernel.
type FastExplanation struct {
	Attr      int32
	Support   float64
	RiskRatio float64
}

// FastResult is the fastpath kernel's output.
type FastResult struct {
	// Scale is the consistency-scaled MAD (or its fallback) that the
	// scores divide by.
	Median, Scale, Threshold float64
	Outliers                 int
	Explanations             []FastExplanation
}

// FastSimpleQuery is a hand-fused, monomorphic implementation of the
// simple one-shot MDP query (one metric, one attribute): MAD training,
// scoring, percentile thresholding, and single-attribute risk-ratio
// explanation in tight loops over primitive slices with no operator
// dispatch or Point boxing.
//
// It is this repository's stand-in for the paper's Table 3, which
// compares a hand-optimized C++ rewrite against the portable Java
// operator runtime: the measured gap is the abstraction cost of the
// general dataflow (interfaces, batch plumbing, per-point structs)
// versus a specialized kernel.
//
// metrics and attrs are parallel arrays; attrs must be dense encoded
// ids (as produced by encode.Encoder).
func FastSimpleQuery(metrics []float64, attrs []int32, percentile, minSupport, minRiskRatio float64) FastResult {
	n := len(metrics)
	if n == 0 {
		return FastResult{}
	}
	if percentile == 0 {
		percentile = 0.99
	}
	if minSupport == 0 {
		minSupport = 0.001
	}
	if minRiskRatio == 0 {
		minRiskRatio = 3
	}

	// Train: the robust fit classify.MADTrainer makes, on a scratch
	// copy.
	scratch := make([]float64, n)
	copy(scratch, metrics)
	median, scale := stats.FitMAD(metrics, scratch)
	inv := 0.0
	if scale > 0 {
		inv = 1 / scale
	}

	// Score every point (vectorizable loop; no branches beyond abs).
	scores := make([]float64, n)
	for i, v := range metrics {
		d := v - median
		if d < 0 {
			d = -d
		}
		scores[i] = d * inv
	}

	// Threshold at the percentile of scores.
	copy(scratch, scores)
	threshold := stats.Quantile(scratch, percentile)

	// Single fused pass: label + dense attribute counting.
	maxID := int32(0)
	for _, a := range attrs {
		if a > maxID {
			maxID = a
		}
	}
	outCounts := make([]float64, maxID+1)
	inCounts := make([]float64, maxID+1)
	totalOut, totalIn := 0.0, 0.0
	for i, s := range scores {
		a := attrs[i]
		if s > threshold {
			totalOut++
			outCounts[a]++
		} else {
			totalIn++
			inCounts[a]++
		}
	}

	res := FastResult{Median: median, Scale: scale, Threshold: threshold, Outliers: int(totalOut)}
	if totalOut == 0 {
		return res
	}
	minCount := minSupport * totalOut
	for a := int32(0); a <= maxID; a++ {
		ao := outCounts[a]
		if ao < minCount {
			continue
		}
		rr := explain.RiskRatio(ao, inCounts[a], totalOut, totalIn)
		if rr < minRiskRatio || math.IsNaN(rr) {
			continue
		}
		res.Explanations = append(res.Explanations, FastExplanation{
			Attr: a, Support: ao / totalOut, RiskRatio: rr,
		})
	}
	return res
}

// Flatten extracts the parallel primitive arrays the fastpath consumes
// from a simple-query point set (first metric, first attribute).
func Flatten(pts []core.Point) (metrics []float64, attrs []int32) {
	metrics = make([]float64, len(pts))
	attrs = make([]int32, len(pts))
	for i := range pts {
		metrics[i] = pts[i].Metrics[0]
		attrs[i] = pts[i].Attrs[0]
	}
	return metrics, attrs
}
