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

// Fit refits the model on xs (copied; xs is not disturbed). Samples
// smaller than 3 leave the model not ready.
func (m *RunningMAD) Fit(xs []float64) {
	if len(xs) < 3 {
		m.ready = false
		return
	}
	m.buf = append(m.buf[:0], xs...)
	med, mad := MAD(m.buf)
	m.median = med
	m.scale = mad * MADConsistency
	if m.scale == 0 {
		// Fallback for samples where a majority value zeroes the
		// MAD: use the (consistency-scaled) mean absolute deviation.
		sum := 0.0
		for _, v := range xs {
			sum += math.Abs(v - med)
		}
		m.scale = sum / float64(len(xs)) * 1.2533
	}
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
