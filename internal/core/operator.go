package core

import (
	"errors"
	"io"
)

// ErrEndOfStream is returned by PartitionStream.NextBatchInto when the
// partition is exhausted. It aliases io.EOF so sources backed by
// readers can return their error unchanged.
var ErrEndOfStream = io.EOF

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
// sharded engine hands every shard's Offloader its function, which moves
// the computation to a helper goroutine and keeps serving snapshots on
// the shard's worker goroutine meanwhile, so a live poll does not wait
// out a refit (see StreamRunner.Snapshot for what a snapshot may read
// then). The classifier still blocks until work returns, so what it
// computes, and when, is unchanged. A classifier never handed a
// function calls work inline.
type Offloader interface {
	SetOffload(run func(work func()))
}

// ThresholdCoordinable is implemented by classifiers whose outlier
// cutoff the sharded engine coordinates across shards (see
// StreamRunner.Coordinate); other classifiers take no part in a
// threshold round. Both methods run on the shard's worker goroutine
// between batches.
type ThresholdCoordinable interface {
	// ScoreSample appends the classifier's recent score sample into
	// buf[:0] and returns it with the stream weight it stands for: each
	// sampled score stands for weight/len(scores) of the stream, which
	// is what lets shards of very different sizes pool into one
	// quantile in proportion to the stream each has seen. An empty
	// sample or zero weight contributes nothing.
	ScoreSample(buf []float64) (scores []float64, weight float64)
	// SetGlobalThreshold installs the pooled cutoff in place of the
	// classifier's local estimate.
	SetGlobalThreshold(cutoff float64)
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
// exponentially damped. The engine invokes Decay every
// StreamRunner.DecayEvery points (paper §3.2, §4.2, §5.3).
type Decayable interface {
	Decay()
}

// ErrStopped is returned by StreamRunner.Wait when execution is halted
// by RequestStop rather than source exhaustion.
var ErrStopped = errors.New("core: pipeline stopped")
