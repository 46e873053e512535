package core

import (
	"strings"
	"testing"
	"time"
)

// offloadClassifier stalls once, in the batch that takes it past `at`
// points, inside an offloaded computation that returns only when
// release is closed — the stand-in for a model refit.
type offloadClassifier struct {
	thresholdClassifier
	run     func(work func())
	at      int
	seen    int
	fault   bool
	stalled chan struct{} // closed once the computation is running
	release chan struct{}
}

func (c *offloadClassifier) SetOffload(run func(work func())) { c.run = run }

func (c *offloadClassifier) ClassifyBatch(dst []LabeledPoint, batch []Point) []LabeledPoint {
	before := c.seen
	c.seen += len(batch)
	if before < c.at && c.seen >= c.at {
		work := func() {
			close(c.stalled)
			<-c.release
			if c.fault {
				panic("injected fit fault")
			}
		}
		if c.run != nil {
			c.run(work)
		} else {
			work()
		}
	}
	return c.thresholdClassifier.ClassifyBatch(dst, batch)
}

func newOffloadClassifier(at int) *offloadClassifier {
	return &offloadClassifier{
		thresholdClassifier: thresholdClassifier{cut: 50},
		at:                  at,
		stalled:             make(chan struct{}),
		release:             make(chan struct{}),
	}
}

// TestSnapshotServedDuringOffload: a snapshot requested while the
// shard's classifier sits in an offloaded computation is answered
// without waiting for it, and sees the explainer as the last whole
// batch left it; a coordination request, which may touch the
// classifier, waits for the batch to end. What the run computes is
// unchanged.
func TestSnapshotServedDuringOffload(t *testing.T) {
	// Long enough after the stall that the worker's select is sure to
	// pick the pending coordination request before the stream ends.
	const n, batch, at = 100_000, 512, 3000
	cls := newOffloadClassifier(at)
	exp := &shardCollectExplainer{}
	sr := StreamRunner{
		Source: NewSliceSource(streamPoints(n)),
		Shards: 1,
		NewShard: func(int) ShardPipeline {
			return ShardPipeline{Classifier: cls, Explainer: exp}
		},
		BatchSize: batch,
		SnapshotShard: func(_ int, pl ShardPipeline, _ any) any {
			return pl.Explainer.(*shardCollectExplainer).consumed
		},
	}
	type result struct {
		stats StreamStats
		err   error
	}
	ran := make(chan result, 1)
	go func() {
		stats, err := sr.Run()
		ran <- result{stats, err}
	}()
	select {
	case <-cls.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("classifier never reached its offloaded computation")
	}

	sr.workersMu.Lock()
	w := sr.workers[0]
	sr.workersMu.Unlock()
	ctl := snapshotReq{fn: func(int, ShardPipeline) any { return "ctl" }, reply: make(chan any, 1)}
	go func() { w.ctl <- ctl }()

	snapped := make(chan []any, 1)
	go func() {
		out, err := sr.Snapshot(nil)
		if err != nil {
			t.Error(err)
		}
		snapped <- out
	}()
	select {
	case out := <-snapped:
		if want := (at - 1) / batch * batch; len(out) != 1 || out[0] != want {
			t.Errorf("snapshot during the stall = %v, want [%d] (the whole batches before it)", out, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot waited for the offloaded computation")
	}
	select {
	case v := <-ctl.reply:
		t.Fatalf("coordination request answered (%v) while the classifier was mid-batch", v)
	default:
	}

	close(cls.release)
	if v := <-ctl.reply; v != "ctl" {
		t.Errorf("coordination reply after the stall = %v", v)
	}
	res := <-ran
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.Points != n || exp.consumed != n || res.stats.Degraded {
		t.Errorf("points %d, consumed %d, degraded %v; want %d, %d, false", res.stats.Points, exp.consumed, res.stats.Degraded, n, n)
	}
}

// TestOffloadPanicQuarantinesShard: a panic on the helper goroutine
// comes back to the worker and quarantines the shard like any other
// pipeline panic, instead of taking the process down.
func TestOffloadPanicQuarantinesShard(t *testing.T) {
	cls := newOffloadClassifier(3000)
	cls.fault = true
	close(cls.release)
	sr := StreamRunner{
		Source: NewSliceSource(streamPoints(10_000)),
		Shards: 1,
		NewShard: func(int) ShardPipeline {
			return ShardPipeline{Classifier: cls, Explainer: &shardCollectExplainer{}}
		},
		BatchSize:     512,
		SnapshotShard: func(int, ShardPipeline, any) any { return nil },
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || len(stats.ShardFailures) != 1 || !strings.Contains(stats.ShardFailures[0].Err, "injected fit fault") {
		t.Errorf("degraded %v, failures %+v; want the fit fault reported", stats.Degraded, stats.ShardFailures)
	}
}

// TestNoOffloadWithoutSnapshots: a run nobody can snapshot has nothing
// to serve during a stall, so its classifier keeps computing inline.
func TestNoOffloadWithoutSnapshots(t *testing.T) {
	cls := newOffloadClassifier(3000)
	close(cls.release)
	sr := StreamRunner{
		Source: NewSliceSource(streamPoints(5000)),
		NewShard: func(int) ShardPipeline {
			return ShardPipeline{Classifier: cls, Explainer: &shardCollectExplainer{}}
		},
	}
	if _, err := sr.Run(); err != nil {
		t.Fatal(err)
	}
	if cls.run != nil {
		t.Error("classifier handed an offload function in a run without a snapshot hook")
	}
}
