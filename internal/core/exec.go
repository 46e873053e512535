package core

import "sync/atomic"

// DecayPolicy controls when a shard damps its adaptive operators.
// Exactly one of EveryPoints or EverySeconds should be set; the paper's
// default configuration is "a decay rate of 0.01 every 100K points"
// (§6), i.e. EveryPoints=100_000 with the rate held by each operator.
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

// shardStats is one shard's account of its run: the RunStats counters
// plus the quarantine record. Only the shard's worker goroutine writes
// it, so a per-batch add never contends; StreamRunner.Stats reads it
// from any goroutine. It is allocated apart from the pipeline it
// counts, so it outlives the worker set that Run's teardown drops.
type shardStats struct {
	points, outPoints, outliers, ticks atomic.Int64
	// dropped counts the points a quarantined shard drained unprocessed.
	dropped atomic.Int64
	// failure is the panic that quarantined the shard; nil while healthy.
	failure atomic.Pointer[string]
	// Pads the account to two cache lines, so no two shards' counters
	// share one (they are allocated back to back).
	_ [80]byte
}

// runStats reads the counters, each atomically on its own.
func (s *shardStats) runStats() RunStats {
	return RunStats{
		Points:     int(s.points.Load()),
		OutPoints:  int(s.outPoints.Load()),
		Outliers:   int(s.outliers.Load()),
		DecayTicks: int(s.ticks.Load()),
	}
}

// failed reports shard's quarantine record, if it has one.
func (s *shardStats) failed(shard int) (ShardFailure, bool) {
	msg := s.failure.Load()
	if msg == nil {
		return ShardFailure{}, false
	}
	return ShardFailure{Shard: shard, Err: *msg, DroppedPoints: s.dropped.Load()}, true
}

// pipeExec drives one pipeline replica batch-by-batch: transform,
// classify, explain, and schedule decay ticks. Each StreamRunner shard
// worker runs one over the points routed to it, so a shard is the
// paper's single-core dataflow (Appendix C), amortizing per-operator
// overhead across batches.
type pipeExec struct {
	transforms []Transformer
	classifier Classifier
	explainer  Explainer
	policy     DecayPolicy
	stats      *shardStats

	sincePts int
	lastTick float64
	haveTick bool
	labels   []LabeledPoint
	xbufs    [][]Point
}

// newPipeExec builds the executor for one shard's pipeline, with a
// fresh account.
func newPipeExec(pl ShardPipeline, policy DecayPolicy) pipeExec {
	return pipeExec{
		transforms: pl.Transforms,
		classifier: pl.Classifier,
		explainer:  pl.Explainer,
		policy:     policy,
		stats:      &shardStats{},
		xbufs:      make([][]Point, len(pl.Transforms)),
	}
}

// consume pushes one ingested batch through the pipeline and applies
// the decay policy.
func (e *pipeExec) consume(pts []Point) {
	e.stats.points.Add(int64(len(pts)))
	e.process(pts)
	e.maybeDecay(pts)
}

// process pushes one batch through transform/classify/explain.
func (e *pipeExec) process(pts []Point) {
	for i, t := range e.transforms {
		e.xbufs[i] = t.Transform(e.xbufs[i][:0], pts)
		pts = e.xbufs[i]
	}
	e.dispatch(pts)
}

// flush drains buffering transformers after end of stream, continuing
// each residue through the remaining pipeline stages.
func (e *pipeExec) flush() {
	for i, t := range e.transforms {
		ft, ok := t.(FlushingTransformer)
		if !ok {
			continue
		}
		pts := ft.Flush(nil)
		for j := i + 1; j < len(e.transforms); j++ {
			e.xbufs[j] = e.transforms[j].Transform(e.xbufs[j][:0], pts)
			pts = e.xbufs[j]
		}
		e.dispatch(pts)
	}
}

// dispatch classifies and explains one transformed batch.
func (e *pipeExec) dispatch(pts []Point) {
	if len(pts) == 0 {
		return
	}
	e.stats.outPoints.Add(int64(len(pts)))
	if e.classifier == nil {
		return
	}
	e.labels = e.classifier.ClassifyBatch(e.labels[:0], pts)
	outliers := 0
	for i := range e.labels {
		if e.labels[i].Label == Outlier {
			outliers++
		}
	}
	e.stats.outliers.Add(int64(outliers))
	if e.explainer != nil {
		e.explainer.Consume(e.labels)
	}
}

// maybeDecay applies the decay policy after ingesting pts.
func (e *pipeExec) maybeDecay(pts []Point) {
	p := e.policy
	if p.EveryPoints > 0 {
		e.sincePts += len(pts)
		for e.sincePts >= p.EveryPoints {
			e.sincePts -= p.EveryPoints
			e.tick()
		}
	}
	if p.EverySeconds > 0 && len(pts) > 0 {
		now := pts[len(pts)-1].Time
		if !e.haveTick {
			e.lastTick = now
			e.haveTick = true
			return
		}
		for now-e.lastTick >= p.EverySeconds {
			e.lastTick += p.EverySeconds
			e.tick()
		}
	}
}

// tick damps every decayable component once.
func (e *pipeExec) tick() {
	e.stats.ticks.Add(1)
	if d, ok := e.classifier.(Decayable); ok {
		d.Decay()
	}
	if d, ok := e.explainer.(Decayable); ok {
		d.Decay()
	}
}
