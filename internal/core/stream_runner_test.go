package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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

// tapExplainer is a shardCollectExplainer that also hands each labeled
// batch to tap, on the worker goroutine that consumed it: the tests'
// view of what a shard saw.
type tapExplainer struct {
	shardCollectExplainer
	shard int
	tap   func(shard int, batch []LabeledPoint)
}

func (e *tapExplainer) Consume(batch []LabeledPoint) {
	e.shardCollectExplainer.Consume(batch)
	e.tap(e.shard, batch)
}

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

var errTestFailure = errors.New("synthetic source failure")

// failingPartition serves full reads of pts until its failAt-th read,
// which appends half a batch and then fails.
type failingPartition struct {
	pts                []Point
	off, calls, failAt int
}

func (s *failingPartition) Partitions() []PartitionStream { return []PartitionStream{s} }

func (s *failingPartition) NextBatchInto(_ context.Context, dst *Batch, max int) (*Batch, error) {
	if s.calls == s.failAt {
		for i := 0; i < max/2 && s.off < len(s.pts); i++ {
			dst.AppendPoint(&s.pts[s.off])
			s.off++
		}
		return nil, errTestFailure
	}
	s.calls++
	end := min(s.off+max, len(s.pts))
	dst.AppendPoints(s.pts[s.off:end])
	s.off = end
	return dst, nil
}

// TestStreamRunnerSourceErrorDropsPartialBatch: a read that fails
// part-way through filling its batch aborts the whole batch; what was
// read before it is consumed, and the error ends the run.
func TestStreamRunnerSourceErrorDropsPartialBatch(t *testing.T) {
	exp := &shardCollectExplainer{}
	r := StreamRunner{
		Partitioned: &failingPartition{pts: streamPoints(100), failAt: 2},
		NewShard: func(int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: exp}
		},
		BatchSize: 32,
	}
	stats, err := r.Run()
	if !errors.Is(err, errTestFailure) {
		t.Fatalf("err = %v, want wrapped synthetic failure", err)
	}
	// Two full batches consumed; the partially filled third dropped.
	if stats.Points != 64 || exp.consumed != 64 {
		t.Errorf("points = %d, consumed = %d, want 64 each (a partial batch must not count)", stats.Points, exp.consumed)
	}
}

// mallocProbe wraps a partition stream and reads the process's
// cumulative heap allocation count before its from-th and to-th reads,
// so the reads in between are charged with everything the run
// allocated meanwhile, on every goroutine.
type mallocProbe struct {
	PartitionStream
	reads, from, to int
	m0, m1          uint64
}

func (p *mallocProbe) Partitions() []PartitionStream { return []PartitionStream{p} }

func (p *mallocProbe) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if p.reads == p.from || p.reads == p.to {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if p.reads == p.from {
			p.m0 = ms.Mallocs
		} else {
			p.m1 = ms.Mallocs
		}
	}
	p.reads++
	return p.PartitionStream.NextBatchInto(ctx, dst, max)
}

// TestStreamRunnerBatchAllocFree: once warm, the engine allocates
// nothing per batch — the read into a recycled loan, the handoff or
// scatter, classification, consumption and the return to the free
// list — whether the source borrows its points (SliceSource) or copies
// them into the loan's slabs (FuncSource). The bound is 0.1 per batch,
// not 0: the free list only grows when more batches are in flight at
// once than ever before, which scheduling (the race detector's
// especially) can make happen late, and each new batch grows its slabs
// a dozen times. That is bounded by the pool's capacity, so a 4,000-read
// window holds it far under the bound, while one allocation per batch
// would read 1.0.
func TestStreamRunnerBatchAllocFree(t *testing.T) {
	const batch, from, to = 16, 500, 4500
	pts := streamPoints(batch * (to + 100))
	sources := map[string]func() PartitionStream{
		"slice": func() PartitionStream { return NewSliceSource(pts) },
		"func": func() PartitionStream {
			off := 0
			return NewFuncSource(batch, func(dst []Point) int {
				n := copy(dst, pts[off:])
				off += n
				return n
			})
		},
	}
	for name, mk := range sources {
		for _, shards := range []int{1, 2} {
			probe := &mallocProbe{PartitionStream: mk(), from: from, to: to}
			r := StreamRunner{
				Partitioned: probe,
				Shards:      shards,
				NewShard: func(int) ShardPipeline {
					return ShardPipeline{Classifier: &thresholdClassifier{cut: 90}, Explainer: &shardCollectExplainer{}}
				},
				BatchSize:  batch,
				DecayEvery: 1000,
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if per := float64(probe.m1-probe.m0) / (to - from); per > 0.1 {
				t.Errorf("%s source, %d shards: %.3f allocs per batch in steady state, want 0", name, shards, per)
			}
		}
	}
}

// TestStreamRunnerPartitionsByAttribute checks every point lands on
// the shard its attribute hash selects, with no loss or duplication.
func TestStreamRunnerPartitionsByAttribute(t *testing.T) {
	const shards = 4
	pts := streamPoints(20_000)
	var mu sync.Mutex
	perShardAttrs := make([]map[int32]int, shards)
	onBatch := func(shard int, batch []LabeledPoint) {
		mu.Lock()
		for i := range batch {
			perShardAttrs[shard][batch[i].Attrs[0]]++
		}
		mu.Unlock()
	}
	explainers := make([]*tapExplainer, shards)
	sr := StreamRunner{
		Partitioned: NewSliceSource(pts),
		Shards:      shards,
		NewShard: func(shard int) ShardPipeline {
			explainers[shard] = &tapExplainer{shard: shard, tap: onBatch}
			perShardAttrs[shard] = make(map[int32]int)
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: explainers[shard]}
		},
		BatchSize: 256,
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(pts) || shardPoints(stats) != len(pts) {
		t.Fatalf("points %d classified %d, want %d", stats.Points, shardPoints(stats), len(pts))
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

// TestStreamRunnerStatsAcrossTeardown: Stats is read from another
// goroutine all through a run and across its teardown. The ingested
// count never goes backwards, and the read after Run returns is Run's
// own account less the two fields only Run fills. The run has decay
// ticks, coordination rounds, a router and a quarantined shard, so
// every field Stats fills is in play.
func TestStreamRunnerStatsAcrossTeardown(t *testing.T) {
	const n = 60_000
	sr := StreamRunner{
		Partitioned: &flakyPartsSource{parts: []PartitionStream{&ckPartition{pts: streamPoints(n)}}},
		Shards:      3,
		NewShard: func(shard int) ShardPipeline {
			var cls Classifier = newCoordClassifier(1, 0.5)
			if shard == 2 {
				cls = &panicClassifier{after: 1000}
			}
			return ShardPipeline{Classifier: cls, Explainer: &shardCollectExplainer{}}
		},
		BatchSize:       256,
		DecayEvery:      2_000,
		Coordinate:      0.5,
		Rebalance:       true,
		CoordinateEvery: 5_000,
	}
	runDone := make(chan struct{})
	lastRead := make(chan StreamStats)
	go func() {
		prev := 0
		for {
			select {
			case <-runDone:
				st := sr.Stats()
				if st.Points < prev {
					t.Errorf("points went backwards across teardown: %d -> %d", prev, st.Points)
				}
				lastRead <- st
				return
			default:
			}
			st := sr.Stats()
			if st.Points < prev {
				t.Errorf("points went backwards: %d -> %d", prev, st.Points)
			}
			prev = st.Points
			runtime.Gosched()
		}
	}()
	stats, err := sr.Run()
	close(runDone)
	last := <-lastRead
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != n || stats.DecayTicks == 0 || stats.CoordRounds == 0 || stats.CoordPasses == 0 || !stats.Degraded {
		t.Fatalf("run left part of the account unexercised: %+v", stats)
	}
	if !stats.HasGlobalCutoff || len(stats.Committed) != 1 {
		t.Fatalf("run left part of the account unexercised: cutoff %v (%v), committed %v", stats.GlobalCutoff, stats.HasGlobalCutoff, stats.Committed)
	}
	if !reflect.DeepEqual(last, stats) {
		t.Errorf("Stats after Run = %+v\nRun returned %+v", last, stats)
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
		Partitioned: src,
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		BatchSize: 512,
	}
	var views atomic.Int32
	view := func(int, ShardPipeline) { views.Add(1) }

	if err := sr.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var stats StreamStats
	go func() {
		var err error
		stats, err = sr.Wait()
		done <- err
	}()

	// Poll snapshots while the stream runs.
	for polled := 1; polled <= 3; polled++ {
		if err := sr.Snapshot(view); err != nil {
			t.Fatal(err)
		}
		if n := views.Load(); n != int32(2*polled) {
			t.Fatalf("%d views after %d snapshots of 2 shards", n, polled)
		}
	}
	for shardPoints(sr.Stats()) == 0 {
		time.Sleep(time.Millisecond) // let a batch through before stopping
	}
	sr.RequestStop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	// The stop cancels sends blocked on backpressure, so points already
	// routed may never reach a worker: what the workers consumed is
	// bounded by, not equal to, what ingest counted.
	if n := shardPoints(stats); n == 0 || n > stats.Points {
		t.Errorf("stats after stop: %+v", stats.RunStats)
	}
	// After completion, snapshots report not-streaming.
	if err := sr.Snapshot(view); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("want ErrNotStreaming after run, got %v", err)
	}
}

// TestStreamRunnerLiveWhenStartReturns: Start returns a live run, so the
// first Snapshot and Stats calls after it answer for
// the run, with no retry, however far its goroutines have got. Before
// Start there is no run to answer for, and once Wait has returned the
// run is over.
func TestStreamRunnerLiveWhenStartReturns(t *testing.T) {
	const n = 5_000
	sr := StreamRunner{
		Partitioned: &flakyPartsSource{parts: []PartitionStream{&ckPartition{pts: streamPoints(n)}}},
		Shards:      2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		BatchSize: 256,
	}
	var views atomic.Int32
	view := func(int, ShardPipeline) { views.Add(1) }
	if got := sr.Stats().Committed; got != nil {
		t.Fatalf("offsets before Start = %v, want nil", got)
	}
	if err := sr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Snapshot(view); err != nil || views.Load() != 2 {
		t.Errorf("first Snapshot after Start = %d views, %v; want 2, nil", views.Load(), err)
	}
	st := sr.Stats()
	if got := st.Committed; len(got) != 1 || got[0] < 0 || got[0] > n {
		t.Errorf("first Stats after Start commits %v, want one offset in [0, %d]", got, n)
	}
	if len(st.PerShard) != 2 {
		t.Errorf("first Stats after Start has %d shards, want 2", len(st.PerShard))
	}
	stats, err := sr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != n || len(stats.Committed) != 1 || stats.Committed[0] != n {
		t.Errorf("final account: points %d committed %v, want %d and [%d]", stats.Points, stats.Committed, n, n)
	}
	if err := sr.Snapshot(view); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("Snapshot after Wait = %v, want ErrNotStreaming", err)
	}
}

// observedChanSource is a chanSource whose test side counts what it
// sends, as ingest.Push's producers do, and reports it through
// IngestObservable.
type observedChanSource struct {
	*chanSource
	batches, points atomic.Int64
}

func (s *observedChanSource) send(pts []Point) {
	s.batches.Add(1)
	s.points.Add(int64(len(pts)))
	s.parts[0].ch <- pts
}

func (s *observedChanSource) IngestStats() []PartitionIngestStats {
	return []PartitionIngestStats{{Batches: s.batches.Load(), Points: s.points.Load()}}
}

// TestStatsIsTheWholeAccountMidRun: a Stats read mid-run carries what
// only Wait used to add — the source's ingest counters — and the cutoff
// the last coordination round merged, and Wait's final account is one
// more read of the same fields.
func TestStatsIsTheWholeAccountMidRun(t *testing.T) {
	const every = 1000
	src := &observedChanSource{chanSource: newChanSource(1, 1)}
	sr := &StreamRunner{
		Partitioned: src,
		Shards:      2,
		NewShard: func(int) ShardPipeline {
			return ShardPipeline{Classifier: newCoordClassifier(1, 0.25), Explainer: &shardCollectExplainer{}}
		},
		Coordinate:      0.99,
		CoordinateEvery: every,
	}
	if st := sr.Stats(); st.HasGlobalCutoff || st.Ingest != nil {
		t.Fatalf("account before Start: %+v", st)
	}
	if err := sr.Start(); err != nil {
		t.Fatal(err)
	}
	if st := sr.Stats(); st.HasGlobalCutoff || len(st.Ingest) != 1 {
		t.Errorf("first read: cutoff %v (%v), ingest %+v; want none, one partition", st.GlobalCutoff, st.HasGlobalCutoff, st.Ingest)
	}
	src.send(streamPoints(every))
	st := sr.Stats()
	for deadline := time.Now().Add(10 * time.Second); st.CoordRounds < 1; st = sr.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("no coordination round after one cadence of points")
		}
		time.Sleep(50 * time.Microsecond)
	}
	want := []PartitionIngestStats{{Batches: 1, Points: every}}
	if !st.HasGlobalCutoff || st.GlobalCutoff != 0.25 || !reflect.DeepEqual(st.Ingest, want) {
		t.Errorf("mid-run read: cutoff %v (%v), ingest %+v; want 0.25 (true), %+v", st.GlobalCutoff, st.HasGlobalCutoff, st.Ingest, want)
	}
	close(src.parts[0].ch)
	final, err := sr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !final.HasGlobalCutoff || final.GlobalCutoff != 0.25 || !reflect.DeepEqual(final.Ingest, want) {
		t.Errorf("final account: cutoff %v (%v), ingest %+v; want 0.25 (true), %+v", final.GlobalCutoff, final.HasGlobalCutoff, final.Ingest, want)
	}
	if after := sr.Stats(); !reflect.DeepEqual(after, final) {
		t.Errorf("Stats after Wait = %+v\nWait returned %+v", after, final)
	}
}

// TestStreamRunnerValidation covers required-field errors.
func TestStreamRunnerValidation(t *testing.T) {
	if _, err := (&StreamRunner{}).Run(); err == nil {
		t.Error("missing source not rejected")
	}
	if _, err := (&StreamRunner{Partitioned: NewSliceSource(nil)}).Run(); err == nil {
		t.Error("missing NewShard not rejected")
	}
	sr := &StreamRunner{Partitioned: NewSliceSource(nil), NewShard: func(int) ShardPipeline { return ShardPipeline{} }}
	if _, err := sr.Run(); err != nil {
		t.Errorf("empty stream should succeed, got %v", err)
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
