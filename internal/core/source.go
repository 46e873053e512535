package core

import "context"

// SliceSource serves points from an in-memory slice as a one-partition
// PartitionedSource. It is the batch-execution form of ingestion:
// "batch execution is supported by streaming over stored data" (paper
// §3.2).
type SliceSource struct {
	pts []Point
	off int
}

// NewSliceSource returns a source reading pts in order. The slice is
// not copied; callers must not mutate it while the source is in use.
func NewSliceSource(pts []Point) *SliceSource { return &SliceSource{pts: pts} }

// Partitions implements PartitionedSource: the source is its own one
// partition.
func (s *SliceSource) Partitions() []PartitionStream { return []PartitionStream{s} }

// NextBatchInto implements PartitionStream. dst borrows the next
// at-most-max points of the slice (Batch.Borrow), so nothing is copied:
// the slice is immutable for the source's lifetime.
func (s *SliceSource) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.off >= len(s.pts) {
		return nil, ErrEndOfStream
	}
	end := min(s.off+max, len(s.pts))
	dst.Borrow(s.pts[s.off:end])
	s.off = end
	return dst, nil
}

// FuncSource is a one-partition PartitionedSource driven by a
// generator function. The function fills dst with up to len(dst)
// points and returns the number produced; returning 0 ends the stream.
// It is used by synthetic workload generators that produce unbounded
// streams.
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

// Partitions implements PartitionedSource: the source is its own one
// partition.
func (s *FuncSource) Partitions() []PartitionStream { return []PartitionStream{s} }

// NextBatchInto implements PartitionStream. The generated points'
// payloads are copied into dst, so a generator may reuse the arrays
// behind its points on its next call.
func (s *FuncSource) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	buf := s.buf
	if max < len(buf) {
		buf = buf[:max]
	}
	n := s.Gen(buf)
	if n == 0 {
		return nil, ErrEndOfStream
	}
	dst.AppendPoints(buf[:n])
	return dst, nil
}
