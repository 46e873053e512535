package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// flakyPartsSource exposes scripted partitions as a PartitionedSource.
type flakyPartsSource struct{ parts []PartitionStream }

func (s *flakyPartsSource) Partitions() []PartitionStream { return s.parts }

// panicClassifier blows up after consuming a set number of points —
// the stand-in for a shard whose operator state goes corrupt mid-run.
type panicClassifier struct {
	after int
	seen  int
}

func (c *panicClassifier) ClassifyBatch(dst []LabeledPoint, batch []Point) []LabeledPoint {
	c.seen += len(batch)
	if c.seen > c.after {
		panic(fmt.Sprintf("injected classifier fault after %d points", c.seen))
	}
	for i := range batch {
		dst = append(dst, LabeledPoint{Point: batch[i], Score: batch[i].Metrics[0], Label: Inlier})
	}
	return dst
}

// ckPartition is a slice-backed partition implementing the offset
// protocol: offsets are point counts, acks are recorded.
type ckPartition struct {
	pts   []Point
	pos   int64
	acked int64
}

func (p *ckPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if int(p.pos) >= len(p.pts) {
		return nil, ErrEndOfStream
	}
	end := int(p.pos) + max
	if end > len(p.pts) {
		end = len(p.pts)
	}
	dst.AppendPoints(p.pts[p.pos:end])
	p.pos = int64(end)
	return dst, nil
}

func (p *ckPartition) Offset() int64 { return p.pos }
func (p *ckPartition) Ack(off int64) {
	if off > p.acked {
		p.acked = off
	}
}

// SeekTo is a stub: the runner never seeks (resume does, before a run
// starts), so no test here calls it.
func (p *ckPartition) SeekTo(off int64) error {
	return fmt.Errorf("ckPartition: seek to %d not supported", off)
}

// TestStreamRunnerQuarantinesPanickedShard: a panic inside one shard's
// pipeline must cost that shard's contribution, not the run. The
// stream completes, the healthy shard's summary is intact, the failure
// is reported, and checkpoint progress covers the whole stream — a
// dead shard still acknowledges (and drops) the batches routed to it.
func TestStreamRunnerQuarantinesPanickedShard(t *testing.T) {
	const n = 40_000
	pts := streamPoints(n)
	exps := make([]*shardCollectExplainer, 2)
	sr := StreamRunner{
		Partitioned: &flakyPartsSource{parts: []PartitionStream{&ckPartition{pts: pts}}},
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			exps[shard] = &shardCollectExplainer{}
			var cls Classifier = &thresholdClassifier{cut: 50}
			if shard == 1 {
				cls = &panicClassifier{after: 1000}
			}
			return ShardPipeline{Classifier: cls, Explainer: exps[shard]}
		},
		BatchSize: 512,
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatalf("degraded run returned error: %v", err)
	}
	if !stats.Degraded {
		t.Fatal("run with a panicked shard not marked degraded")
	}
	if len(stats.ShardFailures) != 1 {
		t.Fatalf("shard failures = %+v, want exactly one", stats.ShardFailures)
	}
	f := stats.ShardFailures[0]
	if f.Shard != 1 || !strings.Contains(f.Err, "panic") {
		t.Errorf("failure = %+v, want shard 1 panic", f)
	}
	if f.DroppedPoints == 0 {
		t.Error("quarantined shard reported no dropped points")
	}
	if stats.Points != n {
		t.Errorf("ingested points = %d, want %d (drops must not stall ingest)", stats.Points, n)
	}
	// The healthy shard saw exactly its share, unperturbed.
	want := 0
	for i := range pts {
		if HashPartition(&pts[i], 2) == 0 {
			want++
		}
	}
	if exps[0].consumed != want {
		t.Errorf("healthy shard consumed %d points, want %d", exps[0].consumed, want)
	}
	// Checkpoint progress is not held hostage by the dead shard: every
	// batch was consumed or drop-acked, so the committed offset covers
	// the whole stream.
	if len(stats.Committed) != 1 || stats.Committed[0] != n {
		t.Errorf("committed offsets = %v, want [%d]", stats.Committed, n)
	}
}

// TestStreamRunnerCommittedOffsets: the runner tracks committed offsets
// per checkpointable partition, reports -1 for partitions without the
// offset protocol, and keeps answering after the run ends.
func TestStreamRunnerCommittedOffsets(t *testing.T) {
	const ckN = 10_000
	plain := NewSliceSource(streamPoints(500))
	src := &flakyPartsSource{parts: []PartitionStream{
		&ckPartition{pts: streamPoints(ckN)},
		plain,
	}}
	sr := StreamRunner{
		Partitioned: src,
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		BatchSize: 256,
	}
	if got := sr.Stats().Committed; got != nil {
		t.Fatalf("offsets before run = %v, want nil (engine not started)", got)
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Committed) != 2 || stats.Committed[0] != ckN || stats.Committed[1] != -1 {
		t.Errorf("stats.Committed = %v, want [%d, -1]", stats.Committed, ckN)
	}
	// A checkpoint of a finished session is still meaningful.
	if got := sr.Stats().Committed; len(got) != 2 || got[0] != ckN || got[1] != -1 {
		t.Errorf("offsets after run = %v, want [%d, -1]", got, ckN)
	}
}

// TestSnapshotSkipsQuarantinedShard: a Snapshot of a run with a
// quarantined shard runs view on the live shards only, and the dead
// shard's slot stays as the caller left it.
func TestSnapshotSkipsQuarantinedShard(t *testing.T) {
	const shards = 3
	src := newChanSource(1, 1)
	sr := &StreamRunner{
		Partitioned: src,
		Shards:      shards,
		NewShard: func(int) ShardPipeline {
			return ShardPipeline{Classifier: newCoordClassifier(1, 1), Explainer: &shardCollectExplainer{}}
		},
	}
	if err := sr.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var once sync.Once
	end := func() { // ends the stream and waits the run out
		once.Do(func() { close(src.parts[0].ch) })
		<-done
	}
	defer end()
	go func() {
		defer close(done)
		if _, err := sr.Wait(); err != nil {
			t.Error(err)
		}
	}()

	src.parts[0].ch <- []Point{poisonFor(1, shards)}
	src.parts[0].ch <- streamPoints(1000)
	waitStats(t, sr, "shard 1's quarantine", func(st StreamStats) bool { return st.Degraded })

	// A live shard's slot reads its explainer's count plus one, so it
	// is never zero.
	slots := make([]int, shards)
	var views atomic.Int32
	err := sr.Snapshot(func(shard int, pl ShardPipeline) {
		views.Add(1)
		slots[shard] = pl.Explainer.(*shardCollectExplainer).consumed + 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if views.Load() != shards-1 || slots[0] == 0 || slots[1] != 0 || slots[2] == 0 {
		t.Errorf("%d views, slots %v; want %d views, shard 1's slot alone zero", views.Load(), slots, shards-1)
	}
	end()
	if f := sr.Stats().ShardFailures; len(f) != 1 || f[0].Shard != 1 {
		t.Errorf("shard failures %+v, want shard 1's alone", f)
	}
}
