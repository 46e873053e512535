package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// queueDepth bounds each shard's channel, in batches.
const queueDepth = 2

// request is a control-plane request served on a worker goroutine
// between batches: run fn on the shard's pipeline — a snapshot's view
// (sent on the worker's snap channel) or a threshold round's collect or
// apply (sent on its ctl channel) — and then signal done. fn writes its
// answer into a slot its sender owns; done only says that the worker is
// through with the request. done is buffered for every request of one
// fan-out, so a worker never blocks on a slow requester.
type request struct {
	fn   func(shard int, pl ShardPipeline)
	done chan<- struct{}
}

// shardWorker drives one shard's pipeline replica batch-by-batch:
// classify, explain, and schedule decay ticks over the points routed
// to it, so a shard is the paper's single-core dataflow (Appendix C),
// amortizing per-operator overhead across batches.
type shardWorker struct {
	id    int
	r     *StreamRunner
	pl    ShardPipeline
	data  chan *Batch
	pool  *BatchPool    // consumed batches go back here, not to the GC
	snap  chan request  // snapshots: also served during an offloaded computation
	ctl   chan request  // coordination: touches the classifier, so between batches only
	quit  chan struct{} // closed by Wait once the worker has drained and no request may follow
	stats *shardStats   // the shard's account

	labels   []LabeledPoint // the classifier's output, reused across batches
	sincePts int            // points taken in since the last decay tick
}

// shardStats is one shard's account of its run: the RunStats counters
// plus the quarantine record. Only the shard's worker goroutine writes
// it, so a per-batch add never contends; StreamRunner.Stats reads it
// from any goroutine. It is allocated apart from the worker it
// counts, so it outlives the worker set that Wait's teardown drops.
type shardStats struct {
	points, outliers, ticks atomic.Int64
	// dropped counts the points a quarantined shard drained unprocessed.
	dropped atomic.Int64
	// failure is the panic that quarantined the shard; nil while healthy.
	failure atomic.Pointer[string]
	// Pads the account to two cache lines, so no two shards' counters
	// share one (they are allocated back to back).
	_ [88]byte
}

// runStats reads the counters, each atomically on its own.
func (s *shardStats) runStats() RunStats {
	return RunStats{
		Points:     int(s.points.Load()),
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

// newWorker builds shard s's worker over its freshly built pipeline,
// with a fresh account. A classifier that can offload its refits is
// handed the worker's offload.
func (r *StreamRunner) newWorker(s int, pool *BatchPool) *shardWorker {
	pl := r.NewShard(s)
	w := &shardWorker{
		id:    s,
		r:     r,
		pl:    pl,
		data:  make(chan *Batch, queueDepth),
		pool:  pool,
		snap:  make(chan request),
		ctl:   make(chan request),
		quit:  make(chan struct{}),
		stats: &shardStats{},
	}
	if off, ok := pl.Classifier.(Offloader); ok {
		off.SetOffload(w.offload)
	}
	return w
}

// run is the worker loop: consume sub-batches and serve requests
// between them; once the data channel closes (every producer has
// finished), report drained and go on serving requests — a concurrent
// Snapshot or a final coordination round must never deadlock against a
// finished worker — until Wait closes quit. exited is what tells Wait
// that no hook call still touches this shard's pipeline, so the caller
// may then own it outright.
func (w *shardWorker) run(drained, exited *sync.WaitGroup) {
	defer exited.Done()
	data := w.data
	for {
		select {
		case b, ok := <-data:
			if !ok {
				drained.Done()
				data = nil // a nil channel never receives: requests only from here
				continue
			}
			w.consume(b)
		case req := <-w.snap:
			w.serve(req)
		case req := <-w.ctl:
			w.serve(req)
		case <-w.quit:
			return
		}
	}
}

// dead reports whether a pipeline panic quarantined the shard.
func (w *shardWorker) dead() bool { return w.stats.failure.Load() != nil }

// consume runs one batch through the pipeline and recycles it. The
// batch's views die here: nothing downstream may retain them. A panic
// anywhere in the pipeline quarantines the shard (see failDrop) rather
// than crashing the run: MacroBase is pitched as always-on, and one
// shard's corrupt state should cost that shard's contribution, not the
// whole resident session.
func (w *shardWorker) consume(b *Batch) {
	if w.dead() {
		w.failDrop(b)
		return
	}
	func() {
		defer w.recover()
		pts := b.Points()
		w.stats.points.Add(int64(len(pts)))
		w.classify(pts)
		w.maybeDecay(len(pts))
	}()
	b.finishAck()
	w.pool.Put(b)
}

// classify labels one batch, counts its outliers and hands the labels
// to the explainer.
func (w *shardWorker) classify(pts []Point) {
	if len(pts) == 0 || w.pl.Classifier == nil {
		return
	}
	w.labels = w.pl.Classifier.ClassifyBatch(w.labels[:0], pts)
	outliers := 0
	for i := range w.labels {
		if w.labels[i].Label == Outlier {
			outliers++
		}
	}
	w.stats.outliers.Add(int64(outliers))
	if w.pl.Explainer != nil {
		w.pl.Explainer.Consume(w.labels)
	}
}

// maybeDecay ticks once for every DecayEvery points taken in, carrying
// the remainder across batches.
func (w *shardWorker) maybeDecay(n int) {
	every := w.r.DecayEvery
	if every <= 0 {
		return
	}
	w.sincePts += n
	for w.sincePts >= every {
		w.sincePts -= every
		w.tick()
	}
}

// tick damps every decayable component once.
func (w *shardWorker) tick() {
	w.stats.ticks.Add(1)
	if d, ok := w.pl.Classifier.(Decayable); ok {
		d.Decay()
	}
	if d, ok := w.pl.Explainer.(Decayable); ok {
		d.Decay()
	}
}

// failDrop disposes of a batch routed to a quarantined shard: the
// points are dropped (and counted), but the batch still acknowledges
// its source read and returns to the free list, so ingest backpressure
// and checkpoint progress never wedge on a dead shard.
func (w *shardWorker) failDrop(b *Batch) {
	w.stats.dropped.Add(int64(b.Len()))
	b.finishAck()
	w.pool.Put(b)
}

// recover, deferred around every pipeline entry point on the worker
// goroutine, turns a panic into a quarantine.
func (w *shardWorker) recover() {
	p := recover()
	if p == nil {
		return
	}
	msg := fmt.Sprintf("panic: %v", p)
	w.stats.failure.Store(&msg)
}

// serve answers one control-plane request on the worker goroutine: a
// live shard runs fn, a quarantined one runs nothing, so its sender's
// slot keeps what the sender left there. done is always signalled, so
// a sender never blocks on a dead shard. A panic in fn quarantines the
// shard like any other pipeline panic.
func (w *shardWorker) serve(req request) {
	if !w.dead() {
		func() {
			defer w.recover()
			req.fn(w.id, w.pl)
		}()
	}
	req.done <- struct{}{}
}

// offload is the Offloader function of this shard's classifier: it runs
// work on a helper goroutine and answers snapshot requests on the worker
// goroutine until work returns. A refit is the one place a worker stays
// inside a batch for hundreds of milliseconds; a poll made to wait it
// out pays several times its own cost, and whether a poll meets a refit
// is a matter of timing, so poll latency would differ from run to run.
// Only snapshots are served: they read the explainer, which is between
// batches here, whereas coordination requests read and write the
// classifier and stay queued on ctl until the batch ends. A panic in
// work is re-raised on the worker goroutine, where consume's recover
// quarantines the shard.
func (w *shardWorker) offload(work func()) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		work()
	}()
	for {
		select {
		case p := <-done:
			if p != nil {
				panic(p)
			}
			return
		case req := <-w.snap:
			w.serve(req)
		}
	}
}

// fanOut runs fn on every worker, on its coordination channel when ctl
// is set and on its snapshot channel otherwise, and returns once every
// worker that took the request is through with it. Every request is
// sent before any is waited for, so the caller pays the slowest shard's
// cost rather than the sum, and the shards answer at (nearly) the same
// stream time. A request a worker has accepted is always served, so only
// the sends watch quit; false means a worker retired first — the run is
// over — and fanOut still waits out the requests already accepted, so
// no fn outlives the call.
func fanOut(workers []*shardWorker, ctl bool, fn func(shard int, pl ShardPipeline)) bool {
	done := make(chan struct{}, len(workers))
	sent := 0
send:
	for _, w := range workers {
		ch := w.snap
		if ctl {
			ch = w.ctl
		}
		select {
		case ch <- request{fn: fn, done: done}:
			sent++
		case <-w.quit:
			break send
		}
	}
	for range sent {
		<-done
	}
	return sent == len(workers)
}
