package transform

import "macrobase/internal/core"

// STFT is the grouped short-time Fourier transform of the paper's
// electricity case study (§6.4): the stream is partitioned by a group
// attribute, each group is windowed into fixed-duration intervals, and
// each window is emitted as one point whose metrics are the lowest
// Coeffs Fourier magnitudes of the Hann-tapered samples.
//
// Attrs of the emitted point are produced by AttrsFor, which lets the
// caller attach encoded window attributes (hour of day, day of week,
// date, device) exactly as the paper's pipeline does.
type STFT struct {
	// GroupAttr selects the grouping attribute by position in Attrs;
	// -1 treats the stream as a single group.
	GroupAttr int
	// MetricDim is the metric to transform.
	MetricDim int
	// WindowSec is the window length in event-time seconds (positive).
	WindowSec float64
	// Coeffs is the number of output Fourier magnitudes (positive).
	Coeffs int
	// AttrsFor produces the emitted point's encoded attributes from
	// the group value and the window start time. Nil copies the
	// window's first input point's attributes.
	AttrsFor func(group int32, windowStart float64) []int32
}

// stftWindow is one group's open window.
type stftWindow struct {
	start   float64
	samples []float64
	attrs   []int32
}

// Apply windows pts and returns one point per window. A group's window
// is emitted when a later point of the group falls past its end; the
// windows still open at the end of pts follow, in the order their
// groups first appear in pts, so the output is a function of pts.
func (s STFT) Apply(pts []core.Point) []core.Point {
	if s.WindowSec <= 0 {
		panic("transform: STFT window must be positive")
	}
	if s.Coeffs <= 0 {
		panic("transform: STFT must emit at least one coefficient")
	}
	groups := make(map[int32]*stftWindow)
	var order []int32
	var out []core.Point
	for i := range pts {
		p := &pts[i]
		key := int32(-1)
		if s.GroupAttr >= 0 && s.GroupAttr < len(p.Attrs) {
			key = p.Attrs[s.GroupAttr]
		}
		w := groups[key]
		if w == nil {
			w = &stftWindow{}
			groups[key] = w
			order = append(order, key)
		} else if p.Time >= w.start+s.WindowSec {
			out = append(out, s.emit(key, w))
			w.samples = w.samples[:0]
		}
		if len(w.samples) == 0 {
			w.start = p.Time - mod(p.Time, s.WindowSec)
			w.attrs = p.Attrs
		}
		w.samples = append(w.samples, p.Metrics[s.MetricDim])
	}
	for _, key := range order {
		out = append(out, s.emit(key, groups[key]))
	}
	return out
}

// emit transforms one window into an output point. It tapers the
// window's samples in place.
func (s STFT) emit(group int32, w *stftWindow) core.Point {
	HannWindow(w.samples)
	metrics := SpectrumMagnitudes(w.samples, s.Coeffs)
	// Pad to a fixed arity so downstream MCD sees constant dims even
	// for short windows.
	for len(metrics) < s.Coeffs {
		metrics = append(metrics, 0)
	}
	var attrs []int32
	if s.AttrsFor != nil {
		attrs = s.AttrsFor(group, w.start)
	} else {
		attrs = append([]int32{}, w.attrs...)
	}
	return core.Point{Metrics: metrics, Attrs: attrs, Time: w.start}
}

// mod is x modulo m, in [0, m) for positive m.
func mod(x, m float64) float64 {
	r := x - m*float64(int64(x/m))
	if r < 0 {
		r += m
	}
	return r
}
