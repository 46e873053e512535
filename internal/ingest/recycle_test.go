package ingest

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// TestPushLoanRoundTrip: GetBatch/SendBatch delivers through
// NextBatchInto as a zero-copy swap — the engine receives the very
// batch the producer filled, and the producer's next loan is the
// engine's swapped-in batch (pool equilibrium, no allocation churn).
func TestPushLoanRoundTrip(t *testing.T) {
	p := withQueueDepth(NewPush(1), 2)
	pr := p.Producer(0)
	ctx := context.Background()

	sent := pr.GetBatch()
	sent.Append([]float64{1.5}, []int32{3}, 9)
	if err := pr.SendBatch(ctx, sent); err != nil {
		t.Fatal(err)
	}

	part := p.Partitions()[0]
	dst := core.NewBatch(16, 1, 1)
	got, err := part.NextBatchInto(ctx, dst, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != sent {
		t.Fatal("whole-batch delivery was not the zero-copy swap")
	}
	if got.Len() != 1 || got.Points()[0].Metrics[0] != 1.5 || got.Points()[0].Attrs[0] != 3 || got.Points()[0].Time != 9 {
		t.Fatalf("delivered batch corrupted: %+v", got.Points())
	}
	// The swapped-in dst is now in the push pool: the next loan is it.
	if next := pr.GetBatch(); next != dst {
		t.Error("swap did not keep dst in the push pool")
	}
}

// TestPushLoanSplit: an oversized loaned batch is served in max-sized
// copies without loss, then recycled.
func TestPushLoanSplit(t *testing.T) {
	p := withQueueDepth(NewPush(1), 2)
	pr := p.Producer(0)
	ctx := context.Background()
	b := pr.GetBatch()
	for i := 0; i < 150; i++ {
		b.Append([]float64{float64(i)}, []int32{int32(i)}, 0)
	}
	if err := pr.SendBatch(ctx, b); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	part := p.Partitions()[0]
	seen := 0
	for {
		dst := &core.Batch{}
		got, err := part.NextBatchInto(ctx, dst, 64)
		if err == core.ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() > 64 {
			t.Fatalf("split batch of %d exceeds max 64", got.Len())
		}
		for _, pt := range got.Points() {
			if pt.Metrics[0] != float64(seen) || pt.Attrs[0] != int32(seen) {
				t.Fatalf("split lost order at %d: %+v", seen, pt)
			}
			seen++
		}
	}
	if seen != 150 {
		t.Fatalf("split delivered %d points, want 150", seen)
	}
}

// TestPushSendBorrowsWithoutCopy: legacy Send shares the caller's
// points (ownership transfer, no producer-side copy) — the consumer
// observes the caller's exact backing arrays.
func TestPushSendBorrowsWithoutCopy(t *testing.T) {
	p := withQueueDepth(NewPush(1), 2)
	pr := p.Producer(0)
	ctx := context.Background()
	pts := []core.Point{{Metrics: []float64{7}, Attrs: []int32{1}}}
	if err := pr.Send(ctx, pts); err != nil {
		t.Fatal(err)
	}
	part := p.Partitions()[0]
	got, err := part.NextBatchInto(ctx, &core.Batch{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if gp := got.Points(); len(gp) != 1 || &gp[0] != &pts[0] {
		t.Fatal("Send did not hand the caller's points through zero-copy")
	}
}

// TestPushIngestStats: counters reflect accepted batches/points, queue
// depth tracks the unconsumed backlog, and a Send blocked on a full
// queue accrues blocked time.
func TestPushIngestStats(t *testing.T) {
	p := withQueueDepth(NewPush(2), 1)
	pr := p.Producer(0)
	ctx := context.Background()
	if err := pr.Send(ctx, pushBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	st := p.IngestStats()
	if len(st) != 2 {
		t.Fatalf("stats for %d partitions, want 2", len(st))
	}
	if st[0].Batches != 1 || st[0].Points != 10 || st[0].Queued != 1 {
		t.Fatalf("partition 0 stats: %+v", st[0])
	}
	if st[1].Batches != 0 || st[1].Queued != 0 {
		t.Fatalf("partition 1 stats: %+v", st[1])
	}
	if st[0].BlockedNanos != 0 {
		t.Fatalf("unblocked send accrued %dns blocked time", st[0].BlockedNanos)
	}

	// Fill the queue, then block a send; draining one batch unblocks
	// it and the blocked time must show up.
	done := make(chan error, 1)
	go func() { done <- pr.Send(ctx, pushBatch(10, 5)) }()
	time.Sleep(20 * time.Millisecond)
	if _, err := nextPoints(ctx, p.Partitions()[0], 1024); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st = p.IngestStats()
	if st[0].Batches != 2 || st[0].Points != 15 {
		t.Fatalf("post-drain stats: %+v", st[0])
	}
	if st[0].BlockedNanos <= 0 {
		t.Fatal("blocked send accrued no blocked time")
	}
}

// TestPushIngestStatsSurfaceInRunStats: the engine copies the
// producer-side counters into StreamStats.Ingest when the run ends.
func TestPushIngestStatsSurfaceInRunStats(t *testing.T) {
	p := NewPush(2)
	ctx := context.Background()
	if err := p.Producer(1).Send(ctx, pushBatch(0, 25)); err != nil {
		t.Fatal(err)
	}
	p.CloseAll()
	sr := core.StreamRunner{
		Partitioned: p,
		Shards:      1,
		NewShard:    func(int) core.ShardPipeline { return core.ShardPipeline{} },
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Ingest) != 2 || stats.Ingest[1].Points != 25 || stats.Ingest[0].Points != 0 {
		t.Fatalf("StreamStats.Ingest: %+v", stats.Ingest)
	}
}

// TestCSVNextIntoMatchesNext: parse-in-place (NextBatchInto) must
// produce exactly the points the allocating path (Next) produces,
// through the same encoder ids.
func TestCSVNextIntoMatchesNext(t *testing.T) {
	const rows = 500
	text := partCSV(3, rows)
	schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}

	encA := encode.NewEncoder("device")
	legacy, err := NewCSVSource(strings.NewReader(text), schema, encA)
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Point
	for {
		pts, err := legacy.Next(97)
		if err == core.ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pts...)
	}

	encB := encode.NewEncoder("device")
	inPlace, err := NewCSVSource(strings.NewReader(text), schema, encB)
	if err != nil {
		t.Fatal(err)
	}
	b := &core.Batch{}
	for {
		if _, err := inPlace.NextBatchInto(context.Background(), b, 97); err == core.ErrEndOfStream {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	got := b.Points()
	if len(got) != len(want) {
		t.Fatalf("NextBatchInto parsed %d rows, Next parsed %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Metrics[0] != want[i].Metrics[0] || got[i].Attrs[0] != want[i].Attrs[0] || got[i].Time != want[i].Time {
			t.Fatalf("row %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestCSVNextIntoErrorLatched: a malformed row fails NextBatchInto
// with a row-numbered error that is latched on subsequent calls.
func TestCSVNextIntoErrorLatched(t *testing.T) {
	text := "power,device\n1.5,d0\nnot-a-number,d1\n2.5,d2\n"
	src, err := NewCSVSource(strings.NewReader(text), Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}, encode.NewEncoder("device"))
	if err != nil {
		t.Fatal(err)
	}
	b := &core.Batch{}
	ctx := context.Background()
	got, err := src.NextBatchInto(ctx, b, 100)
	if got != nil || err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("want row-2 error and no batch, got %v (batch %v)", err, got)
	}
	if _, err2 := src.NextBatchInto(ctx, b, 100); err2 != err {
		t.Fatalf("error not latched: %v vs %v", err2, err)
	}
}

// TestCSVNextIntoAllocBound pins the parse-in-place (NextBatchInto)
// allocation floor: once the encoder knows the values, a row allocates
// nothing, and a read of any length costs only the source's set-up
// (its block buffer, the header's names and column maps) and the slabs
// of the one block it parses into and recycles.
func TestCSVNextIntoAllocBound(t *testing.T) {
	const rows = 1000
	text := partCSV(0, rows)
	schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}
	enc := encode.NewEncoder("device")
	// Warm the encoder's interned values.
	warm, err := NewCSVSource(strings.NewReader(text), schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	b := &core.Batch{}
	ctx := context.Background()
	if _, err := warm.NextBatchInto(ctx, b, rows); err != nil && err != core.ErrEndOfStream {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		src, err := NewCSVSource(strings.NewReader(text), schema, enc)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		for {
			if _, err := src.NextBatchInto(ctx, b, 256); err == core.ErrEndOfStream {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if b.Len() != rows {
			t.Fatal("short parse")
		}
	})
	// Budget: the source's set-up and its one block's slabs, 15
	// allocations here; one per row would read over 1000.
	t.Logf("%v allocations for %d rows", allocs, rows)
	if allocs > 32 {
		t.Fatalf("CSV parse-in-place: %v allocs for %d rows, want <= 32", allocs, rows)
	}
}

// rowMallocs wraps a partition stream and reads the process's
// cumulative heap allocation count before its from-th and to-th reads,
// so the reads in between are charged with everything the run
// allocated meanwhile, on every goroutine.
type rowMallocs struct {
	core.PartitionStream
	reads, from, to int
	m0, m1          uint64
}

func (p *rowMallocs) Partitions() []core.PartitionStream { return []core.PartitionStream{p} }

func (p *rowMallocs) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
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

// TestCSVStreamOneShardAllocsPerRow: a one-shard streaming run over a
// CSVSource allocates nothing per row in steady state: the source
// splits fields over its recycled block and parses them into the
// engine's recycled loan, and the handoff to the worker and the return
// to the free list add nothing per read. The bound allows 0.1
// allocations per read: the free list grows when scheduling puts more
// batches in flight than ever before, and a new batch grows its slabs a
// few dozen times, which the pool's capacity bounds; one allocation per
// read would read 1.0, and one per row 64.
func TestCSVStreamOneShardAllocsPerRow(t *testing.T) {
	const batch, from, to = 64, 200, 1200
	text := partCSV(0, batch*(to+20))
	src, err := NewCSVSource(strings.NewReader(text), Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}, encode.NewEncoder("device"))
	if err != nil {
		t.Fatal(err)
	}
	probe := &rowMallocs{PartitionStream: src, from: from, to: to}
	r := core.StreamRunner{
		Partitioned: probe,
		NewShard:    func(int) core.ShardPipeline { return core.ShardPipeline{} },
		BatchSize:   batch,
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	reads, rows := to-from, batch*(to-from)
	if perRead := float64(probe.m1-probe.m0) / float64(reads); perRead > 0.1 {
		t.Errorf("%d allocs over %d rows: %.3f per read, want <= 0.1", probe.m1-probe.m0, rows, perRead)
	}
}
