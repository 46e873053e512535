package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// shardCollectExplainer records consumed outlier/inlier counts and
// supports snapshot cloning.
type shardCollectExplainer struct {
	consumed int
	outliers int
	decays   int
}

func (e *shardCollectExplainer) Consume(batch []LabeledPoint) {
	e.consumed += len(batch)
	for i := range batch {
		if batch[i].Label == Outlier {
			e.outliers++
		}
	}
}
func (e *shardCollectExplainer) Explanations() []Explanation { return nil }
func (e *shardCollectExplainer) Decay()                      { e.decays++ }

func streamPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Metrics: []float64{float64(i % 100)},
			Attrs:   []int32{int32(i % 17)},
			Time:    float64(i),
		}
	}
	return pts
}

// TestStreamRunnerSingleShardMatchesRunner drives the same source,
// classifier logic, and decay policy through Runner and a one-shard
// StreamRunner and requires identical statistics.
func TestStreamRunnerSingleShardMatchesRunner(t *testing.T) {
	pts := streamPoints(10_000)

	seqCls := &thresholdClassifier{cut: 50}
	seqExp := &collectExplainer{}
	r := Runner{
		Source:     NewSliceSource(pts),
		Classifier: seqCls,
		Explainer:  seqExp,
		BatchSize:  512,
		Decay:      DecayPolicy{EveryPoints: 1000},
	}
	seqStats, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	shCls := &thresholdClassifier{cut: 50}
	shExp := &shardCollectExplainer{}
	sr := StreamRunner{
		Partitioned: SourcePartitions(NewSliceSource(pts)),
		Shards:      1,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: shCls, Explainer: shExp}
		},
		BatchSize: 512,
		Decay:     DecayPolicy{EveryPoints: 1000},
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != seqStats.Points || stats.OutPoints != seqStats.OutPoints ||
		stats.Outliers != seqStats.Outliers || stats.DecayTicks != seqStats.DecayTicks {
		t.Errorf("sharded stats %+v != sequential %+v", stats.RunStats, seqStats)
	}
	if shCls.decays != seqCls.decays {
		t.Errorf("classifier decays %d != %d", shCls.decays, seqCls.decays)
	}
	if shExp.consumed != seqExp.n {
		t.Errorf("explainer consumed %d != %d", shExp.consumed, seqExp.n)
	}
}

// TestStreamRunnerPartitionsByAttribute checks every point lands on
// the shard its attribute hash selects, with no loss or duplication.
func TestStreamRunnerPartitionsByAttribute(t *testing.T) {
	const shards = 4
	pts := streamPoints(20_000)
	var mu sync.Mutex
	perShardAttrs := make([]map[int32]int, shards)
	explainers := make([]*shardCollectExplainer, shards)
	sr := StreamRunner{
		Partitioned: SourcePartitions(NewSliceSource(pts)),
		Shards:      shards,
		NewShard: func(shard int) ShardPipeline {
			explainers[shard] = &shardCollectExplainer{}
			perShardAttrs[shard] = make(map[int32]int)
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: explainers[shard]}
		},
		BatchSize: 256,
		OnBatch: func(shard int, batch []LabeledPoint) {
			mu.Lock()
			for i := range batch {
				perShardAttrs[shard][batch[i].Attrs[0]]++
			}
			mu.Unlock()
		},
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(pts) || stats.OutPoints != len(pts) {
		t.Fatalf("points %d out %d, want %d", stats.Points, stats.OutPoints, len(pts))
	}
	total := 0
	for shard, attrs := range perShardAttrs {
		for a, n := range attrs {
			total += n
			if want := HashPartition(&Point{Attrs: []int32{a}}, shards); want != shard {
				t.Errorf("attr %d seen on shard %d, hash routes to %d", a, shard, want)
			}
		}
	}
	if total != len(pts) {
		t.Errorf("observed %d points across shards, want %d", total, len(pts))
	}
	sum := 0
	for _, s := range stats.PerShard {
		sum += s.Points
	}
	if sum != len(pts) {
		t.Errorf("per-shard points sum %d != %d", sum, len(pts))
	}
}

// TestStreamRunnerSnapshotAndStop exercises the snapshot protocol and
// RequestStop concurrently with the run.
func TestStreamRunnerSnapshotAndStop(t *testing.T) {
	// Unbounded source: forces termination through RequestStop.
	src := NewFuncSource(512, func(dst []Point) int {
		for i := range dst {
			dst[i] = Point{Metrics: []float64{1}, Attrs: []int32{int32(i % 5)}}
		}
		return len(dst)
	})
	sr := StreamRunner{
		Partitioned: SourcePartitions(src),
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		SnapshotShard: func(shard int, pl ShardPipeline) any {
			return pl.Explainer.(*shardCollectExplainer).consumed
		},
		BatchSize: 512,
	}

	done := make(chan error, 1)
	var stats StreamStats
	go func() {
		var err error
		stats, err = sr.Run()
		done <- err
	}()

	// Poll snapshots while the stream runs.
	polled := 0
	for polled < 3 {
		snaps, err := sr.Snapshot()
		if errors.Is(err, ErrNotStreaming) {
			continue // run not yet started
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 2 {
			t.Fatalf("snapshot count %d", len(snaps))
		}
		polled++
	}
	for sr.LiveStats().OutPoints == 0 {
		time.Sleep(time.Millisecond) // let a batch through before stopping
	}
	sr.RequestStop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	// The stop cancels sends blocked on backpressure, so points already
	// routed may never reach a worker: what the workers consumed is
	// bounded by, not equal to, what ingest counted.
	if stats.OutPoints == 0 || stats.OutPoints > stats.Points {
		t.Errorf("stats after stop: %+v", stats.RunStats)
	}
	// After completion, snapshots report not-streaming.
	if _, err := sr.Snapshot(); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("want ErrNotStreaming after run, got %v", err)
	}
}

// TestStreamRunnerValidation covers required-field errors.
func TestStreamRunnerValidation(t *testing.T) {
	if _, err := (&StreamRunner{}).Run(); err == nil {
		t.Error("missing source not rejected")
	}
	if _, err := (&StreamRunner{Partitioned: SourcePartitions(NewSliceSource(nil))}).Run(); err == nil {
		t.Error("missing NewShard not rejected")
	}
	sr := &StreamRunner{Partitioned: SourcePartitions(NewSliceSource(nil)), NewShard: func(int) ShardPipeline { return ShardPipeline{} }}
	if _, err := sr.Run(); err != nil {
		t.Errorf("empty stream should succeed, got %v", err)
	}
	if _, err := sr.Snapshot(); err == nil {
		t.Error("snapshot without hook not rejected")
	}
}

// TestHashPartitionStableAndInRange sanity-checks the default router.
func TestHashPartitionStableAndInRange(t *testing.T) {
	for shards := 1; shards <= 8; shards++ {
		counts := make([]int, shards)
		for a := int32(0); a < 1000; a++ {
			p := Point{Attrs: []int32{a}}
			s1 := HashPartition(&p, shards)
			s2 := HashPartition(&p, shards)
			if s1 != s2 {
				t.Fatalf("unstable hash for attr %d", a)
			}
			if s1 < 0 || s1 >= shards {
				t.Fatalf("shard %d out of range", s1)
			}
			counts[s1]++
		}
		if shards > 1 {
			for s, n := range counts {
				if n == 0 {
					t.Errorf("shards=%d: shard %d received nothing", shards, s)
				}
			}
		}
	}
	if s := HashPartition(&Point{}, 8); s != 0 {
		t.Errorf("attribute-less point routed to %d, want 0", s)
	}
}
