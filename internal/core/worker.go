package core

import (
	"fmt"
	"sync"
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

type shardWorker struct {
	id   int
	r    *StreamRunner
	pl   ShardPipeline
	data chan *Batch
	pool *BatchPool       // consumed batches go back here, not to the GC
	snap chan snapshotReq // snapshots: also served during an offloaded computation
	ctl  chan snapshotReq // coordination: touches the classifier, so between batches only
	quit chan struct{}    // closed by Run once the worker has drained and no request may follow
	exec pipeExec         // the shared batch kernel, one replica per shard, with the shard's account
}

// newWorker builds shard s's worker over its freshly built pipeline.
// A classifier that can offload its refits is handed the worker's
// offload only when someone can snapshot the run: otherwise there is
// nothing to serve during a stall, and it keeps computing inline.
func (r *StreamRunner) newWorker(s int, pool *BatchPool) *shardWorker {
	pl := r.NewShard(s)
	w := &shardWorker{
		id:   s,
		r:    r,
		pl:   pl,
		data: make(chan *Batch, queueDepth),
		pool: pool,
		snap: make(chan snapshotReq),
		ctl:  make(chan snapshotReq),
		quit: make(chan struct{}),
		exec: newPipeExec(pl, r.Decay),
	}
	if off, ok := pl.Classifier.(Offloader); ok && r.SnapshotShard != nil {
		off.SetOffload(w.offload)
	}
	return w
}

// run is the worker loop: consume sub-batches and serve requests
// between them; once the data channel closes (every producer has
// finished), flush, report drained, and go on serving requests — a
// concurrent Snapshot or a final coordination round must never
// deadlock against a finished worker — until Run closes quit. exited
// is what tells Run that no hook call still touches this shard's
// pipeline, so the caller may then own it outright.
func (w *shardWorker) run(drained, exited *sync.WaitGroup) {
	defer exited.Done()
	data := w.data
	for {
		select {
		case b, ok := <-data:
			if !ok {
				w.flush()
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

// flush runs the pipeline's end-of-stream flush. It runs even when the
// run was stopped: for a resident streaming session, stop is the normal
// termination and residual windows are still worth explaining. A
// quarantined shard skips it (its state is suspect), and a flush panic
// quarantines like any other.
func (w *shardWorker) flush() {
	if w.dead() {
		return
	}
	defer w.recover()
	w.exec.flush()
}

// dead reports whether a pipeline panic quarantined the shard.
func (w *shardWorker) dead() bool { return w.exec.stats.failure.Load() != nil }

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
		w.exec.consume(b.Points())
	}()
	b.finishAck()
	w.pool.Put(b)
}

// failDrop disposes of a batch routed to a quarantined shard: the
// points are dropped (and counted), but the batch still acknowledges
// its source read and returns to the free list, so ingest backpressure
// and checkpoint progress never wedge on a dead shard.
func (w *shardWorker) failDrop(b *Batch) {
	w.exec.stats.dropped.Add(int64(b.Len()))
	b.finishAck()
	w.pool.Put(b)
}

// failed is the shard's ShardFailure as of now.
func (w *shardWorker) failed() ShardFailure {
	f, _ := w.exec.stats.failed(w.id)
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
	w.exec.stats.failure.Store(&msg)
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
