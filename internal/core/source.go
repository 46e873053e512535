package core

// SliceSource serves points from an in-memory slice. It is the
// batch-execution form of ingestion: "batch execution is supported by
// streaming over stored data" (paper §3.2).
type SliceSource struct {
	pts []Point
	off int
}

// NewSliceSource returns a source reading pts in order. The slice is
// not copied; callers must not mutate it while the source is in use.
func NewSliceSource(pts []Point) *SliceSource { return &SliceSource{pts: pts} }

// Next implements Source.
func (s *SliceSource) Next(max int) ([]Point, error) {
	if s.off >= len(s.pts) {
		return nil, ErrEndOfStream
	}
	end := s.off + max
	if end > len(s.pts) {
		end = len(s.pts)
	}
	b := s.pts[s.off:end]
	s.off = end
	return b, nil
}

// Reset rewinds the source to the beginning so the same data can be
// replayed (used when benchmarking repeated passes).
func (s *SliceSource) Reset() { s.off = 0 }

// Remaining reports how many points have not yet been served.
func (s *SliceSource) Remaining() int { return len(s.pts) - s.off }

// FuncSource adapts a generator function to the Source interface. The
// function fills dst with up to cap(dst) points and returns the number
// produced; returning 0 ends the stream. It is used by synthetic
// workload generators that produce unbounded streams.
type FuncSource struct {
	Gen func(dst []Point) int
	buf []Point
}

// NewFuncSource returns a source driven by gen with an internal batch
// buffer of size batch.
func NewFuncSource(batch int, gen func(dst []Point) int) *FuncSource {
	if batch <= 0 {
		batch = 4096
	}
	return &FuncSource{Gen: gen, buf: make([]Point, batch)}
}

// Next implements Source.
func (s *FuncSource) Next(max int) ([]Point, error) {
	buf := s.buf
	if max < len(buf) {
		buf = buf[:max]
	}
	n := s.Gen(buf)
	if n == 0 {
		return nil, ErrEndOfStream
	}
	return buf[:n], nil
}
