// Package stats provides the numerical substrate shared by
// MacroBase's operators: running moments, selection-based medians and
// quantiles, the MAD, normal and chi-square distributions, and the
// small dense linear algebra (covariance, Cholesky, Mahalanobis)
// required by FastMCD.
package stats

import "math"

// Running accumulates count, mean and variance incrementally using
// Welford's algorithm. The zero value is an empty accumulator.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Merge folds other into r (parallel Welford combination).
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	r.m2 += other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	r.mean += d * float64(other.n) / float64(n)
	r.n = n
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
