package ingest

import (
	"context"

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
	p := NewPush(1, 2)
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
	p := NewPush(1, 2)
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
	p := NewPush(1, 2)
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
	p := NewPush(2, 1)
	pr := p.Producer(0)
	ctx := context.Background()
	if err := pr.Send(ctx, pushBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	st := p.IngestStats(nil)
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
	st = p.IngestStats(st[:0])
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
	p := NewPush(2, 4)
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

// TestCSVNextIntoMatchesNext: parse-in-place must produce exactly the
// points the legacy allocating path produces, through the same
// encoder ids.
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
		if err := inPlace.NextInto(b, 97); err == core.ErrEndOfStream {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	got := b.Points()
	if len(got) != len(want) {
		t.Fatalf("NextInto parsed %d rows, Next parsed %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Metrics[0] != want[i].Metrics[0] || got[i].Attrs[0] != want[i].Attrs[0] || got[i].Time != want[i].Time {
			t.Fatalf("row %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestCSVNextIntoErrorLatched: a malformed row fails NextInto with a
// row-numbered error that is latched on subsequent calls.
func TestCSVNextIntoErrorLatched(t *testing.T) {
	text := "power,device\n1.5,d0\nnot-a-number,d1\n2.5,d2\n"
	src, err := NewCSVSource(strings.NewReader(text), Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}, encode.NewEncoder("device"))
	if err != nil {
		t.Fatal(err)
	}
	b := &core.Batch{}
	err = src.NextInto(b, 100)
	if err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("want row-2 error, got %v (batch %d)", err, b.Len())
	}
	if err2 := src.NextInto(b, 100); err2 != err {
		t.Fatalf("error not latched: %v vs %v", err2, err)
	}
}

// TestCSVNextIntoAllocBound pins the parse-in-place allocation floor:
// at most ~1 allocation per row (encoding/csv's internal per-record
// string; our own path adds none once warm).
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
	if err := warm.NextInto(b, rows); err != nil && err != core.ErrEndOfStream {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		src, err := NewCSVSource(strings.NewReader(text), schema, enc)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		for {
			if err := src.NextInto(b, 256); err == core.ErrEndOfStream {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if b.Len() != rows {
			t.Fatal("short parse")
		}
	})
	// Budget: 1 per row (csv record string) plus source/reader setup
	// and first-run slab warmup amortized across runs.
	if allocs > rows+64 {
		t.Fatalf("CSV parse-in-place: %v allocs for %d rows, want <= %d", allocs, rows, rows+64)
	}
}

// TestPartitionedCSVBatchNative: the partitioned reader parses every
// row in place into the loaned batch.
func TestPartitionedCSVBatchNative(t *testing.T) {
	text := partCSV(0, 100)
	schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}
	ps, err := NewPartitionedCSV(schema, encode.NewEncoder("device"), strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	part := ps.Partitions()[0]
	ctx := context.Background()
	b := &core.Batch{}
	total := 0
	for {
		got, err := part.NextBatchInto(ctx, b, 33)
		if err == core.ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != b {
			t.Fatal("csv partition must fill in place, not swap")
		}
		total = b.Len()
	}
	if total != 100 {
		t.Fatalf("parsed %d rows, want 100", total)
	}
}
