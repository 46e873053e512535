package transform

import "macrobase/internal/core"

// STFT is the grouped short-time Fourier transform of the paper's
// electricity case study (§6.4): the stream is partitioned by a group
// attribute, each group is windowed into fixed-duration intervals, and
// each completed window is emitted as one point whose metrics are the
// lowest Coeffs Fourier magnitudes of the (Hann-tapered) samples.
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
	// WindowSec is the window length in event-time seconds.
	WindowSec float64
	// Coeffs is the number of output Fourier magnitudes.
	Coeffs int
	// Hann, when true, applies a Hann taper before the transform.
	Hann bool
	// AttrsFor produces the emitted point's encoded attributes from
	// the group value and the window start time. Nil copies the
	// first input point's attributes.
	AttrsFor func(group int32, windowStart float64) []int32

	groups map[int32]*stftState
}

type stftState struct {
	start   float64
	active  bool
	samples []float64
	attrs   []int32
}

// NewSTFT returns a grouped STFT transformer.
func NewSTFT(groupAttr, metricDim int, windowSec float64, coeffs int) *STFT {
	if windowSec <= 0 {
		panic("transform: STFT window must be positive")
	}
	if coeffs <= 0 {
		panic("transform: STFT must emit at least one coefficient")
	}
	return &STFT{
		GroupAttr: groupAttr,
		MetricDim: metricDim,
		WindowSec: windowSec,
		Coeffs:    coeffs,
		Hann:      true,
		groups:    make(map[int32]*stftState),
	}
}

// Transform implements core.Transformer.
func (s *STFT) Transform(dst []core.Point, batch []core.Point) []core.Point {
	for i := range batch {
		p := &batch[i]
		key := int32(-1)
		if s.GroupAttr >= 0 && s.GroupAttr < len(p.Attrs) {
			key = p.Attrs[s.GroupAttr]
		}
		g := s.groups[key]
		if g == nil {
			g = &stftState{}
			s.groups[key] = g
		}
		if g.active && p.Time >= g.start+s.WindowSec {
			dst = append(dst, s.emit(key, g))
		}
		if !g.active {
			g.active = true
			g.start = p.Time - mod(p.Time, s.WindowSec)
			g.samples = g.samples[:0]
			g.attrs = append(g.attrs[:0], p.Attrs...)
		}
		g.samples = append(g.samples, p.Metrics[s.MetricDim])
	}
	return dst
}

// Flush implements core.FlushingTransformer.
func (s *STFT) Flush(dst []core.Point) []core.Point {
	for key, g := range s.groups {
		if g.active && len(g.samples) > 0 {
			dst = append(dst, s.emit(key, g))
		}
	}
	return dst
}

// emit transforms one completed window into an output point.
func (s *STFT) emit(group int32, g *stftState) core.Point {
	samples := g.samples
	if s.Hann {
		tapered := make([]float64, len(samples))
		copy(tapered, samples)
		HannWindow(tapered)
		samples = tapered
	}
	metrics := SpectrumMagnitudes(samples, s.Coeffs)
	// Pad to a fixed arity so downstream MCD sees constant dims even
	// for short windows.
	for len(metrics) < s.Coeffs {
		metrics = append(metrics, 0)
	}
	var attrs []int32
	if s.AttrsFor != nil {
		attrs = s.AttrsFor(group, g.start)
	} else {
		attrs = make([]int32, len(g.attrs))
		copy(attrs, g.attrs)
	}
	p := core.Point{Metrics: metrics, Attrs: attrs, Time: g.start}
	g.active = false
	return p
}

var _ core.FlushingTransformer = (*STFT)(nil)

// mod is x modulo m, in [0, m) for positive m.
func mod(x, m float64) float64 {
	r := x - m*float64(int64(x/m))
	if r < 0 {
		r += m
	}
	return r
}
