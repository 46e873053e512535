//go:build linux

package main

import (
	"math"

	"macrobase/internal/stats"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics, leaving xs as it is; 0 for
// an empty sample (a metric with nothing to report).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(append([]float64(nil), xs...), q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// coeffVar is the standard deviation over the mean.
func coeffVar(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
