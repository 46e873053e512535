package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chanPartition is a minimal context-aware partition stream backed by
// a channel of batches, standing in for a push backend.
type chanPartition struct {
	ch chan []Point
}

func (p *chanPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	select {
	case pts, ok := <-p.ch:
		if !ok {
			return nil, ErrEndOfStream
		}
		dst.AppendPoints(pts)
		return dst, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// nextPoints reads one batch from ps into a fresh Batch and returns its
// point views.
func nextPoints(ctx context.Context, ps PartitionStream, max int) ([]Point, error) {
	b, err := ps.NextBatchInto(ctx, &Batch{}, max)
	if err != nil {
		return nil, err
	}
	return b.Points(), nil
}

// chanSource is a PartitionedSource over N chanPartitions.
type chanSource struct {
	parts []*chanPartition
}

func newChanSource(n, depth int) *chanSource {
	s := &chanSource{}
	for i := 0; i < n; i++ {
		s.parts = append(s.parts, &chanPartition{ch: make(chan []Point, depth)})
	}
	return s
}

func (s *chanSource) Partitions() []PartitionStream {
	out := make([]PartitionStream, len(s.parts))
	for i, p := range s.parts {
		out[i] = p
	}
	return out
}

// TestStreamRunnerPartitionedIngest feeds three partitions concurrently
// into four shards and checks nothing is lost, duplicated, or
// misrouted.
func TestStreamRunnerPartitionedIngest(t *testing.T) {
	const (
		partitions = 3
		shards     = 4
		perPart    = 9_000
	)
	src := newChanSource(partitions, 2)
	var mu sync.Mutex
	perShardAttrs := make([]map[int32]int, shards)
	sr := StreamRunner{
		Partitioned: src,
		Shards:      shards,
		NewShard: func(shard int) ShardPipeline {
			perShardAttrs[shard] = make(map[int32]int)
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
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
	for p := 0; p < partitions; p++ {
		go func(p int) {
			part := src.parts[p]
			for i := 0; i < perPart; i += 300 {
				batch := make([]Point, 300)
				for j := range batch {
					batch[j] = Point{Metrics: []float64{1}, Attrs: []int32{int32((p*perPart + i + j) % 23)}}
				}
				part.ch <- batch
			}
			close(part.ch)
		}(p)
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := partitions * perPart
	if stats.Points != want || stats.OutPoints != want {
		t.Fatalf("points %d out %d, want %d", stats.Points, stats.OutPoints, want)
	}
	total := 0
	for shard, attrs := range perShardAttrs {
		for a, n := range attrs {
			total += n
			if route := HashPartition(&Point{Attrs: []int32{a}}, shards); route != shard {
				t.Errorf("attr %d seen on shard %d, hash routes to %d", a, shard, route)
			}
		}
	}
	if total != want {
		t.Errorf("observed %d points across shards, want %d", total, want)
	}
}

// TestStreamRunnerRequestStopCancelsBlockedRead pins the deadline-aware
// stop contract for context-aware sources: a partition blocked waiting
// for data must be cancelled mid-NextBatchInto, without Abandon.
func TestStreamRunnerRequestStopCancelsBlockedRead(t *testing.T) {
	src := newChanSource(2, 1)
	sr := StreamRunner{
		Partitioned: src,
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
	}
	// One batch on partition 0; partition 1 never produces: the run
	// can only end through cancellation of the blocked reads.
	src.parts[0].ch <- []Point{{Metrics: []float64{1}, Attrs: []int32{3}}}
	done := make(chan error, 1)
	var stats StreamStats
	go func() {
		var err error
		stats, err = sr.Run()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	sr.RequestStop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RequestStop did not cancel the blocked NextBatchInto")
	}
	if stats.Points != 1 || stats.OutPoints != 1 {
		t.Errorf("stats after stop: %+v", stats.RunStats)
	}
}

// foreverSource is a legacy pull Source whose Next blocks forever — the
// PR-1 known limitation. Only Abandon can get past it.
type foreverSource struct{ block chan struct{} }

func (s *foreverSource) Next(max int) ([]Point, error) {
	<-s.block
	return nil, ErrEndOfStream
}

// TestStreamRunnerAbandonForeverBlockingSource pins abandon-and-drain:
// a Source stuck in Next can no longer stall the run's completion.
func TestStreamRunnerAbandonForeverBlockingSource(t *testing.T) {
	fs := &foreverSource{block: make(chan struct{})}
	exp := &shardCollectExplainer{}
	prefix := []Point{{Metrics: []float64{1}, Attrs: []int32{1}}, {Metrics: []float64{2}, Attrs: []int32{2}}}
	sr := StreamRunner{
		Partitioned: SourcePartitions(&ConcatSource{Srcs: []Source{NewSliceSource(prefix), fs}}),
		Shards:      1,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: exp}
		},
		BatchSize: 16,
	}
	done := make(chan error, 1)
	var stats StreamStats
	go func() {
		var err error
		stats, err = sr.Run()
		done <- err
	}()
	// RequestStop alone cannot end this run (Next never returns)...
	time.Sleep(20 * time.Millisecond)
	sr.RequestStop()
	select {
	case <-done:
		t.Fatal("run ended without Abandon despite a blocked Next")
	case <-time.After(50 * time.Millisecond):
	}
	// ...Abandon drains what was delivered and completes.
	sr.Abandon()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abandon did not complete the run")
	}
	if stats.Points != len(prefix) || exp.consumed != len(prefix) {
		t.Errorf("prefix not drained: points=%d consumed=%d want %d", stats.Points, exp.consumed, len(prefix))
	}
	close(fs.block) // release the leaked goroutine for -race cleanliness
}

// TestStreamRunnerPartitionErrorStopsStream: a failing partition must
// surface its error once and cancel the sibling partitions.
func TestStreamRunnerPartitionErrorStopsStream(t *testing.T) {
	boom := errors.New("boom")
	src := newChanSource(2, 1)
	sr := StreamRunner{
		Partitioned: &erringSource{inner: src, failPart: 1, err: boom},
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
	}
	// Partition 0 would block forever on its channel; the error from
	// partition 1 must cancel it.
	done := make(chan error, 1)
	go func() {
		_, err := sr.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partition error did not stop the stream")
	}
}

// erringSource wraps a chanSource, replacing one partition with an
// immediately failing stream.
type erringSource struct {
	inner    *chanSource
	failPart int
	err      error
}

type errPartition struct{ err error }

func (p *errPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	return nil, p.err
}

func (s *erringSource) Partitions() []PartitionStream {
	parts := s.inner.Partitions()
	parts[s.failPart] = &errPartition{err: s.err}
	return parts
}

// flakySource errors once, then would serve data again if (wrongly)
// re-driven.
type flakySource struct {
	err   error
	calls int
}

func (s *flakySource) Next(max int) ([]Point, error) {
	s.calls++
	if s.calls == 1 {
		return nil, s.err
	}
	return []Point{{Metrics: []float64{1}}}, nil
}

// TestConcatSourceLatchesInnerError: an error from an inner source must
// surface and terminate the concatenation; subsequent Next calls return
// the same error without re-driving any inner source.
func TestConcatSourceLatchesInnerError(t *testing.T) {
	boom := errors.New("boom")
	flaky := &flakySource{err: boom}
	tail := NewSliceSource([]Point{{Metrics: []float64{9}}})
	src := &ConcatSource{Srcs: []Source{flaky, tail}}
	if _, err := src.Next(4); !errors.Is(err, boom) {
		t.Fatalf("first call: want boom, got %v", err)
	}
	for i := 0; i < 3; i++ {
		b, err := src.Next(4)
		if !errors.Is(err, boom) || b != nil {
			t.Fatalf("call %d after failure: got (%v, %v), want latched boom", i, b, err)
		}
	}
	if flaky.calls != 1 {
		t.Errorf("failed source re-driven %d times after its error", flaky.calls-1)
	}
	if tail.Remaining() != 1 {
		t.Errorf("tail source was driven past a preceding failure")
	}
}

// TestLimitSourceLatchesInnerError: same latch contract for
// LimitSource.
func TestLimitSourceLatchesInnerError(t *testing.T) {
	boom := errors.New("boom")
	flaky := &flakySource{err: boom}
	src := &LimitSource{Src: flaky, N: 100}
	if _, err := src.Next(4); !errors.Is(err, boom) {
		t.Fatalf("first call: want boom, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := src.Next(4); !errors.Is(err, boom) {
			t.Fatalf("call %d after failure: got %v, want latched boom", i, err)
		}
	}
	if flaky.calls != 1 {
		t.Errorf("failed source re-driven %d times after its error", flaky.calls-1)
	}
}

// TestSourcePartitionsAdapterEquivalence: the adapter must reproduce
// the pull loop's batches exactly, point for point, and honor
// cancellation between calls.
func TestSourcePartitionsAdapterEquivalence(t *testing.T) {
	pts := streamPoints(1000)
	parts := SourcePartitions(NewSliceSource(pts)).Partitions()
	if len(parts) != 1 {
		t.Fatalf("adapter produced %d partitions, want 1", len(parts))
	}
	ref := NewSliceSource(pts)
	ctx := context.Background()
	for {
		want, werr := ref.Next(128)
		got, gerr := nextPoints(ctx, parts[0], 128)
		if (werr == nil) != (gerr == nil) || len(want) != len(got) {
			t.Fatalf("adapter batch diverged: (%d, %v) vs (%d, %v)", len(got), gerr, len(want), werr)
		}
		if werr != nil {
			break
		}
		for i := range want {
			if !slices.Equal(got[i].Metrics, want[i].Metrics) || !slices.Equal(got[i].Attrs, want[i].Attrs) || got[i].Time != want[i].Time {
				t.Fatalf("adapter point diverged: %+v vs %+v", got[i], want[i])
			}
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nextPoints(cancelled, parts[0], 128); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled adapter read: got %v", err)
	}
}

// TestSourcePartitionsCopiesReusedBuffers: a legacy Source may rewrite
// the arrays behind its last batch on its next Next call. The adapter
// copies each batch into the engine's loan, so a worker still holding
// an earlier batch (the one-shard handoff, or a shard's queue) never
// sees the rewrite. The generator here aliases every point's Metrics
// and Attrs into arrays it rewrites on every call, and each shard
// holds its first batch until the source has produced three batches
// past it, which the bounded queues let the ingest goroutine do.
func TestSourcePartitionsCopiesReusedBuffers(t *testing.T) {
	const (
		n     = 20_000
		batch = 64
	)
	for _, shards := range []int{1, 3} {
		metrics := make([]float64, batch)
		attrs := make([]int32, batch)
		seq := 0
		var produced atomic.Int64
		src := NewFuncSource(batch, func(dst []Point) int {
			k := 0
			for ; k < len(dst) && seq < n; k++ {
				metrics[k] = float64(seq)
				attrs[k] = int32(seq % 17)
				dst[k] = Point{Metrics: metrics[k : k+1], Attrs: attrs[k : k+1], Time: float64(seq)}
				seq++
			}
			produced.Store(int64(seq))
			return k
		})
		var mu sync.Mutex
		seen := make([]int, n)
		held := make([]bool, shards)
		bad := 0
		sr := StreamRunner{
			Partitioned: SourcePartitions(src),
			Shards:      shards,
			BatchSize:   batch,
			NewShard: func(int) ShardPipeline {
				return ShardPipeline{Classifier: &thresholdClassifier{cut: 1e9}}
			},
			OnBatch: func(shard int, b []LabeledPoint) {
				mu.Lock()
				first := !held[shard]
				held[shard] = true
				mu.Unlock()
				if first {
					target := min(int64(b[0].Time)+3*batch, n)
					deadline := time.Now().Add(2 * time.Second)
					for produced.Load() < target && time.Now().Before(deadline) {
						time.Sleep(100 * time.Microsecond)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for _, lp := range b {
					i := int(lp.Time)
					if lp.Metrics[0] != lp.Time || lp.Attrs[0] != int32(i%17) {
						bad++
						continue
					}
					seen[i]++
				}
			},
		}
		stats, err := sr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Points != n {
			t.Fatalf("shards=%d: ingested %d points, want %d", shards, stats.Points, n)
		}
		if bad > 0 {
			t.Fatalf("shards=%d: %d consumed points were rewritten by the source", shards, bad)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("shards=%d: point %d consumed %d times, want once", shards, i, c)
			}
		}
	}
}
