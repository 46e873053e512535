package core

// pipeExec drives one pipeline replica batch-by-batch: transform,
// classify, explain, and schedule decay ticks. It is the shared
// execution kernel behind Runner (the sequential engine runs one) and
// StreamRunner (each shard worker runs one over its hash partition),
// so the batch semantics — flush ordering, decay-clock arithmetic,
// label accounting — cannot drift between the two engines.
type pipeExec struct {
	transforms []Transformer
	classifier Classifier
	explainer  Explainer
	policy     DecayPolicy
	onBatch    func(batch []LabeledPoint)
	// onDispatch/onTick, when non-nil, observe progress increments
	// (the sharded engine feeds its atomic live counters from them).
	onDispatch func(outPoints, outliers int)
	onTick     func()

	stats    RunStats
	sincePts int
	lastTick float64
	haveTick bool
	labels   []LabeledPoint
	xbufs    [][]Point
}

// reset prepares the executor for a fresh pass, reusing buffers.
func (e *pipeExec) reset() {
	e.stats = RunStats{}
	e.sincePts = 0
	e.haveTick = false
	if cap(e.xbufs) < len(e.transforms) {
		e.xbufs = make([][]Point, len(e.transforms))
	}
	e.xbufs = e.xbufs[:len(e.transforms)]
}

// consume pushes one ingested batch through the pipeline and applies
// the decay policy.
func (e *pipeExec) consume(pts []Point) {
	e.stats.Points += len(pts)
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
	e.stats.OutPoints += len(pts)
	if e.classifier == nil {
		if e.onDispatch != nil {
			e.onDispatch(len(pts), 0)
		}
		return
	}
	e.labels = e.classifier.ClassifyBatch(e.labels[:0], pts)
	outliers := 0
	for i := range e.labels {
		if e.labels[i].Label == Outlier {
			outliers++
		}
	}
	e.stats.Outliers += outliers
	if e.onDispatch != nil {
		e.onDispatch(len(pts), outliers)
	}
	if e.onBatch != nil {
		e.onBatch(e.labels)
	}
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
	e.stats.DecayTicks++
	if e.onTick != nil {
		e.onTick()
	}
	if d, ok := e.classifier.(Decayable); ok {
		d.Decay()
	}
	if d, ok := e.explainer.(Decayable); ok {
		d.Decay()
	}
}
