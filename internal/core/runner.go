package core

import (
	"errors"
	"fmt"
)

// DecayPolicy controls when the Runner damps adaptive operators in
// streaming mode. Exactly one of EveryPoints or EverySeconds should be
// set; the paper's default configuration is "a decay rate of 0.01
// every 100K points" (§6), i.e. EveryPoints=100_000 with the rate held
// by each operator.
type DecayPolicy struct {
	// EveryPoints triggers a decay tick each time this many points
	// have been ingested. Zero disables tuple-based decay.
	EveryPoints int
	// EverySeconds triggers a decay tick whenever event time
	// advances by this many seconds (batch-based real-time decay,
	// paper §4.2). Zero disables time-based decay.
	EverySeconds float64
}

// RunStats summarizes one pipeline execution.
type RunStats struct {
	// Points is the number of points ingested from the source.
	Points int
	// OutPoints is the number of points that reached the classifier
	// (after transformation).
	OutPoints int
	// Outliers is the number of points labeled Outlier.
	Outliers int
	// DecayTicks counts how many decay rounds were applied.
	DecayTicks int
}

// Runner executes a MacroBase pipeline: it pulls batches from the
// source, pushes them through the transformers, classifier, and
// explainer, and schedules decay ticks. It is the Go analog of the
// paper's single-core dataflow runtime (Appendix C), amortizing
// per-operator overhead across batches of points. The batch kernel
// itself (pipeExec) is shared with the sharded engine (StreamRunner),
// which runs one replica of it per shard.
//
// The zero value is not usable; populate at least Source. Classifier
// and Explainer are optional so the same runner can drive
// transform-only or classify-only pipelines.
type Runner struct {
	Source     Source
	Transforms []Transformer
	Classifier Classifier
	Explainer  Explainer
	BatchSize  int // points per consume call; default 4096
	Decay      DecayPolicy
	// OnBatch, if non-nil, observes each labeled batch after
	// classification; used by experiments to trace scores.
	OnBatch func(batch []LabeledPoint)

	exec pipeExec
	ibuf Batch // recycled fill target for BatchSource pulls
}

// Stats returns statistics for the most recent Run.
func (r *Runner) Stats() RunStats { return r.exec.stats }

// Run drives the pipeline until the source is exhausted (one-shot
// execution). In streaming deployments the source is simply unbounded;
// the execution loop is identical (paper §3.2: "all operators operate
// over streams").
//
// Sources that implement BatchSource are consumed through NextInto on
// a single recycled Batch owned by the runner, so the sequential read
// loop — like the sharded one — allocates nothing per batch in steady
// state.
func (r *Runner) Run() (RunStats, error) {
	if r.Source == nil {
		return RunStats{}, errors.New("core: Runner requires a Source")
	}
	batch := r.BatchSize
	if batch <= 0 {
		batch = 4096
	}
	r.exec.transforms = r.Transforms
	r.exec.classifier = r.Classifier
	r.exec.explainer = r.Explainer
	r.exec.policy = r.Decay
	r.exec.onBatch = r.OnBatch
	r.exec.reset()
	if bs, ok := r.Source.(BatchSource); ok {
		return r.runBatched(bs, batch)
	}
	for {
		pts, err := r.Source.Next(batch)
		if err == ErrEndOfStream {
			r.exec.flush()
			return r.exec.stats, nil
		}
		if err != nil {
			return r.exec.stats, fmt.Errorf("core: source: %w", err)
		}
		r.exec.consume(pts)
	}
}

// runBatched is the slab-native pull loop: the runner's own Batch is
// reset and refilled each round, and its point views handed to the
// batch kernel, which deep-copies nothing and retains nothing past the
// consume call.
func (r *Runner) runBatched(src BatchSource, batch int) (RunStats, error) {
	for {
		r.ibuf.Reset()
		err := src.NextInto(&r.ibuf, batch)
		if err == ErrEndOfStream {
			r.exec.flush()
			return r.exec.stats, nil
		}
		if err != nil {
			// Drop whatever was appended before the failure — the same
			// abort-the-batch semantics as the Next path.
			return r.exec.stats, fmt.Errorf("core: source: %w", err)
		}
		r.exec.consume(r.ibuf.Points())
	}
}
