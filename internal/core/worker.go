package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// queueDepth bounds each shard's channel, in batches.
const queueDepth = 2

// snapshotReq is a control-plane request served on a worker goroutine
// between batches: a snapshot (fn nil; answered via SnapshotShard,
// sent on the worker's snap channel) or a coordination collect/apply
// (fn non-nil; answered with fn's result, sent on its ctl channel).
// reply is buffered so workers never block on a slow requester.
type snapshotReq struct {
	fn    func(shard int, pl ShardPipeline) any
	reply chan any
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
	pool  *BatchPool       // consumed batches go back here, not to the GC
	snap  chan snapshotReq // snapshots: also served during an offloaded computation
	ctl   chan snapshotReq // coordination: touches the classifier, so between batches only
	quit  chan struct{}    // closed by Wait once the worker has drained and no request may follow
	stats *shardStats      // the shard's account

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
// handed the worker's offload only when someone can snapshot the run:
// otherwise there is nothing to serve during a stall, and it keeps
// computing inline.
func (r *StreamRunner) newWorker(s int, pool *BatchPool) *shardWorker {
	pl := r.NewShard(s)
	w := &shardWorker{
		id:    s,
		r:     r,
		pl:    pl,
		data:  make(chan *Batch, queueDepth),
		pool:  pool,
		snap:  make(chan snapshotReq),
		ctl:   make(chan snapshotReq),
		quit:  make(chan struct{}),
		stats: &shardStats{},
	}
	if off, ok := pl.Classifier.(Offloader); ok && r.SnapshotShard != nil {
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

// failed is the shard's ShardFailure as of now.
func (w *shardWorker) failed() ShardFailure {
	f, _ := w.stats.failed(w.id)
	return f
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

// serve answers one control-plane request on the worker goroutine.
// Exactly one reply is always sent — a quarantined shard answers with
// its ShardFailure marker — so snapshot collectors and the coordinator
// never block on a dead shard.
func (w *shardWorker) serve(req snapshotReq) {
	if w.dead() {
		req.reply <- w.failed()
		return
	}
	var v any
	func() {
		defer w.recover()
		if req.fn != nil {
			v = req.fn(w.id, w.pl)
		} else {
			v = w.r.SnapshotShard(w.id, w.pl)
		}
	}()
	if w.dead() {
		v = w.failed() // the hook itself panicked: state is suspect
	}
	req.reply <- v
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

// fanOut asks every worker one question and gathers the answers into
// out, indexed by shard: a snapshot when fn is nil, otherwise fn on the
// worker's coordination channel. Every request is sent before any reply
// is read, so the caller pays the slowest shard's cost rather than the
// sum, and the shards answer at (nearly) the same stream time. A request
// a worker has accepted is always answered (replies are buffered), so
// only the sends watch quit; false means a worker retired first — the
// run is over.
func fanOut(workers []*shardWorker, fn func(shard int, pl ShardPipeline) any, out []any) bool {
	replies := make([]chan any, len(workers))
	for i, w := range workers {
		ch := w.ctl
		if fn == nil {
			ch = w.snap
		}
		replies[i] = make(chan any, 1)
		select {
		case ch <- snapshotReq{fn: fn, reply: replies[i]}:
		case <-w.quit:
			return false
		}
	}
	for i, reply := range replies {
		out[i] = <-reply
	}
	return true
}
