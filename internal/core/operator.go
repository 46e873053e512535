package core

import (
	"errors"
	"io"
)

// ErrEndOfStream is returned by Source.Next when the stream is
// exhausted. It aliases io.EOF so sources backed by readers can return
// their error unchanged.
var ErrEndOfStream = io.EOF

// Source produces batches of points; it is the runtime form of the
// paper's Ingestor operator (external data source -> stream<Point>).
//
// Next returns at most max points. It returns ErrEndOfStream when no
// points remain; a non-empty batch and ErrEndOfStream may not be
// combined (drain first, then signal end).
type Source interface {
	Next(max int) ([]Point, error)
}

// Transformer maps a stream of points to a stream of points
// (stream<Point> -> stream<Point>). Implementations append their
// output to dst and return the extended slice, which lets the runner
// reuse buffers across batches. A transformer may buffer internally
// (e.g. windowing) and emit fewer or more points than it consumed.
type Transformer interface {
	Transform(dst []Point, batch []Point) []Point
}

// FlushingTransformer is implemented by transformers that buffer
// points (windows, group-bys). Flush appends any residual output
// after the source is exhausted.
type FlushingTransformer interface {
	Transformer
	Flush(dst []Point) []Point
}

// Classifier labels each point according to its metrics
// (stream<Point> -> stream<(label, Point)>). ClassifyBatch appends one
// LabeledPoint per input point to dst and returns the extended slice.
// Streaming classifiers train themselves incrementally as a side
// effect of classification (paper §4.2).
type Classifier interface {
	ClassifyBatch(dst []LabeledPoint, batch []Point) []LabeledPoint
}

// Offloader is implemented by classifiers whose ClassifyBatch now and
// then stalls in one long computation that touches no operator state
// but its own inputs — in practice a model refit. SetOffload hands the
// classifier a function that runs such a computation to completion; the
// sharded engine's implementation moves it to a helper goroutine and
// keeps answering snapshot requests on the shard's worker goroutine
// meanwhile, so a live poll does not wait out a refit (see
// StreamRunner.SnapshotShard for what a snapshot may read then). The
// classifier still blocks until work returns, so what it computes, and
// when, is unchanged. A classifier never handed a function calls work
// inline.
type Offloader interface {
	SetOffload(run func(work func()))
}

// Explainer aggregates labeled points and produces explanations on
// demand (stream<(label, Point)> -> stream<Explanation>); it acts as a
// streaming view maintainer (paper §3.2 step 4).
type Explainer interface {
	Consume(batch []LabeledPoint)
	// Explanations materializes the current view: combinations with
	// support and risk ratio above the operator's thresholds,
	// unordered. Callers rank them for presentation.
	Explanations() []Explanation
}

// Decayable is implemented by adaptive operators (ADR-backed
// classifiers, AMC/M-CPS-tree explainers) whose state should be
// exponentially damped. The Runner invokes Decay on a tuple- or
// time-based period in streaming mode (paper §3.2, §4.2, §5.3).
type Decayable interface {
	Decay()
}

// TransformFunc adapts a stateless function to the Transformer
// interface.
type TransformFunc func(dst []Point, batch []Point) []Point

// Transform implements Transformer.
func (f TransformFunc) Transform(dst []Point, batch []Point) []Point { return f(dst, batch) }

// ErrStopped is returned by the Runner when execution is halted by a
// Stop callback rather than source exhaustion.
var ErrStopped = errors.New("core: pipeline stopped")
