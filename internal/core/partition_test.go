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
	onBatch := func(shard int, batch []LabeledPoint) {
		mu.Lock()
		for i := range batch {
			perShardAttrs[shard][batch[i].Attrs[0]]++
		}
		mu.Unlock()
	}
	sr := StreamRunner{
		Partitioned: src,
		Shards:      shards,
		NewShard: func(shard int) ShardPipeline {
			perShardAttrs[shard] = make(map[int32]int)
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &tapExplainer{shard: shard, tap: onBatch}}
		},
		BatchSize: 256,
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

// TestStreamRunnerRequestStopCancelsBlockedRead pins the stop contract
// for context-aware sources: a partition blocked waiting for data must
// be cancelled mid-NextBatchInto.
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

// stuckReadSource is a one-partition source whose read does not watch
// its context: it serves prefix, then blocks until release is closed,
// then returns one late batch. entered is closed once the read is
// blocked.
type stuckReadSource struct {
	prefix, late     []Point
	entered, release chan struct{}
	calls            int
}

func (s *stuckReadSource) Partitions() []PartitionStream { return []PartitionStream{s} }

func (s *stuckReadSource) NextBatchInto(_ context.Context, dst *Batch, max int) (*Batch, error) {
	s.calls++
	switch s.calls {
	case 1:
		dst.AppendPoints(s.prefix)
	case 2:
		close(s.entered)
		<-s.release
		dst.AppendPoints(s.late)
	default:
		return nil, ErrEndOfStream
	}
	return dst, nil
}

// TestStreamRunnerStopWaitsOutUncancellableRead pins the one limitation
// of a stop: a read that does not watch its context cannot be
// interrupted, so Run waits until it returns, and the batch it then
// delivers is dropped rather than counted or consumed.
func TestStreamRunnerStopWaitsOutUncancellableRead(t *testing.T) {
	gs := &stuckReadSource{
		prefix:  []Point{{Metrics: []float64{1}, Attrs: []int32{1}}, {Metrics: []float64{2}, Attrs: []int32{2}}},
		late:    []Point{{Metrics: []float64{3}, Attrs: []int32{3}}},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	exp := &shardCollectExplainer{}
	sr := StreamRunner{
		Partitioned: gs,
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
	<-gs.entered
	sr.RequestStop()
	select {
	case <-done:
		close(gs.release)
		t.Fatal("Run returned while the read was still blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(gs.release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the blocked read returned")
	}
	if want := len(gs.prefix); stats.Points != want || exp.consumed != want {
		t.Errorf("points=%d consumed=%d, want %d each (the late batch must be dropped)", stats.Points, exp.consumed, want)
	}
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

// TestSourcePartitionsAdapterEquivalence: every source is its own one
// partition. A FuncSource replaying a slice through a reused buffer
// serves, through its partition view, the same reads as a SliceSource
// over that slice: same batch bounds, same points, end of stream on the
// same read, and a cancelled context ends a read before it takes
// anything.
func TestSourcePartitionsAdapterEquivalence(t *testing.T) {
	pts := streamPoints(1000)
	next := 0
	gen := NewFuncSource(0, func(dst []Point) int {
		n := copy(dst, pts[next:])
		next += n
		return n
	})
	ref := NewSliceSource(pts)
	parts := gen.Partitions()
	if len(parts) != 1 {
		t.Fatalf("FuncSource produced %d partitions, want 1", len(parts))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := parts[0].NextBatchInto(cancelled, &Batch{}, 128); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: got %v", err)
	}
	ctx := context.Background()
	for {
		wb, werr := ref.Partitions()[0].NextBatchInto(ctx, &Batch{}, 128)
		gb, gerr := parts[0].NextBatchInto(ctx, &Batch{}, 128)
		if werr != gerr {
			t.Fatalf("reads ended differently: %v vs %v", gerr, werr)
		}
		if werr != nil {
			if werr != ErrEndOfStream {
				t.Fatalf("stream ended with %v", werr)
			}
			break
		}
		want, got := wb.Points(), gb.Points()
		if len(want) != len(got) {
			t.Fatalf("read of %d points, want %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].Metrics, want[i].Metrics) || !slices.Equal(got[i].Attrs, want[i].Attrs) || got[i].Time != want[i].Time {
				t.Fatalf("point diverged: %+v vs %+v", got[i], want[i])
			}
		}
	}
	if next != len(pts) {
		t.Fatalf("generator replayed %d points, want %d", next, len(pts))
	}
}

// TestFuncSourceCopiesReusedBuffers: a generator may rewrite the arrays
// behind its last points on its next call. FuncSource copies each
// generated batch into the engine's loan, so a worker still holding an
// earlier batch (the one-shard handoff, or a shard's queue) never sees
// the rewrite. The generator here aliases every point's Metrics
// and Attrs into arrays it rewrites on every call, and each shard
// holds its first batch until the source has produced three batches
// past it, which the bounded queues let the ingest goroutine do.
func TestFuncSourceCopiesReusedBuffers(t *testing.T) {
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
		onBatch := func(shard int, b []LabeledPoint) {
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
		}
		sr := StreamRunner{
			Partitioned: src,
			Shards:      shards,
			BatchSize:   batch,
			NewShard: func(shard int) ShardPipeline {
				return ShardPipeline{Classifier: &thresholdClassifier{cut: 1e9}, Explainer: &tapExplainer{shard: shard, tap: onBatch}}
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
