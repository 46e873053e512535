package stats

import "math"

// RunningMAD is a refittable univariate robust model: Fit computes
// the median and consistency-scaled MAD of a sample, Score returns
// robust z-scores against the last fit. It is the lightweight model
// used by experiment loops that retrain every window (Figure 5).
type RunningMAD struct {
	median float64
	scale  float64
	ready  bool
	buf    []float64
}

// FitMAD is the univariate robust fit (paper §4.1): the median of xs
// and its consistency-scaled MAD. work must hold xs's values, in any
// order; the fit permutes it, and xs is not disturbed. When more than
// half the sample shares one value the MAD is zero, and the scale falls
// back to the consistency-scaled mean absolute deviation from the
// median, summed over xs in its own order, so quantized streams (e.g.
// optical-flow magnitudes) still score sensibly instead of collapsing
// to 0-or-infinity.
func FitMAD(xs, work []float64) (median, scale float64) {
	median, mad := MAD(work)
	scale = mad * MADConsistency
	if scale == 0 {
		sum := 0.0
		for _, v := range xs {
			sum += math.Abs(v - median)
		}
		scale = sum / float64(len(xs)) * 1.2533 // consistency for mean |dev|
	}
	return median, scale
}

// Fit refits the model on xs (copied; xs is not disturbed). Samples
// smaller than 3 leave the model not ready.
func (m *RunningMAD) Fit(xs []float64) {
	if len(xs) < 3 {
		m.ready = false
		return
	}
	m.buf = append(m.buf[:0], xs...)
	m.median, m.scale = FitMAD(xs, m.buf)
	m.ready = true
}

// Ready reports whether a usable fit exists.
func (m *RunningMAD) Ready() bool { return m.ready }

// Score returns |x - median| / scale (+Inf off a degenerate fit).
func (m *RunningMAD) Score(x float64) float64 {
	if !m.ready {
		return 0
	}
	if m.scale == 0 {
		if x == m.median {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(x-m.median) / m.scale
}
