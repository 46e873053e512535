package ingest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"macrobase/internal/core"
)

func pushBatch(base, n int) []core.Point {
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = core.Point{Metrics: []float64{float64(base + i)}, Attrs: []int32{int32((base + i) % 7)}}
	}
	return pts
}

// withQueueDepth shrinks each partition queue of p, fresh from
// NewPush, to depth batches, so a test fills it in a send or two.
func withQueueDepth(p *Push, depth int) *Push {
	for _, pp := range p.parts {
		pp.ch = make(chan *core.Batch, depth)
	}
	return p
}

// nextPoints reads one batch from ps into a fresh Batch and returns its
// point views.
func nextPoints(ctx context.Context, ps core.PartitionStream, max int) ([]core.Point, error) {
	b, err := ps.NextBatchInto(ctx, &core.Batch{}, max)
	if err != nil {
		return nil, err
	}
	return b.Points(), nil
}

// TestPushDeliversInOrderAndSplits: batches arrive in Send order per
// partition, and a batch larger than max is split across NextBatchInto
// calls without loss.
func TestPushDeliversInOrderAndSplits(t *testing.T) {
	p := withQueueDepth(NewPush(1), 2)
	pr := p.Producer(0)
	ctx := context.Background()
	go func() {
		for i := 0; i < 5; i++ {
			if err := pr.Send(ctx, pushBatch(i*100, 100)); err != nil {
				t.Error(err)
			}
		}
		pr.Close()
	}()
	part := p.Partitions()[0]
	var got []core.Point
	for {
		pts, err := nextPoints(ctx, part, 64) // smaller than the sent batches: forces splits
		if err == core.ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) > 64 {
			t.Fatalf("NextBatchInto returned %d points, max 64", len(pts))
		}
		// The views belong to the batch, which a consumer recycles, so
		// retention means copying.
		for i := range pts {
			got = append(got, core.Point{
				Metrics: append([]float64(nil), pts[i].Metrics...),
				Attrs:   append([]int32(nil), pts[i].Attrs...),
				Time:    pts[i].Time,
			})
		}
	}
	if len(got) != 500 {
		t.Fatalf("received %d points, want 500", len(got))
	}
	for i := range got {
		if got[i].Metrics[0] != float64(i) {
			t.Fatalf("point %d out of order: metric %v", i, got[i].Metrics[0])
		}
	}
}

// TestPushBackpressure: Send must block once the partition queue is
// full, and resume when the consumer drains.
func TestPushBackpressure(t *testing.T) {
	p := withQueueDepth(NewPush(1), 1)
	pr := p.Producer(0)
	ctx := context.Background()
	if err := pr.Send(ctx, pushBatch(0, 8)); err != nil {
		t.Fatal(err)
	}
	// Queue full: a bounded-context Send must time out.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := pr.Send(short, pushBatch(8, 8)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full-queue send: got %v, want deadline exceeded", err)
	}
	// Draining one batch unblocks the producer.
	unblocked := make(chan error, 1)
	go func() { unblocked <- pr.Send(ctx, pushBatch(8, 8)) }()
	if _, err := nextPoints(ctx, p.Partitions()[0], 1024); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send did not unblock after drain")
	}
}

// TestPushCloseSemantics: close drains queued data first, then signals
// end-of-stream; post-close sends fail; Close is idempotent across
// handles.
func TestPushCloseSemantics(t *testing.T) {
	p := NewPush(2)
	ctx := context.Background()
	pr := p.Producer(0)
	if err := pr.Send(ctx, pushBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	p.Producer(0).Close() // second handle, same partition: must not panic
	if err := pr.Send(ctx, pushBatch(0, 1)); !errors.Is(err, ErrProducerClosed) {
		t.Fatalf("post-close send: got %v", err)
	}
	part := p.Partitions()[0]
	pts, err := nextPoints(ctx, part, 1024)
	if err != nil || len(pts) != 10 {
		t.Fatalf("queued data lost at close: (%d, %v)", len(pts), err)
	}
	if _, err := nextPoints(ctx, part, 1024); err != core.ErrEndOfStream {
		t.Fatalf("want end of stream after drain, got %v", err)
	}
	// The untouched partition keeps the stream open until CloseAll.
	p.CloseAll()
	if _, err := nextPoints(ctx, p.Partitions()[1], 16); err != core.ErrEndOfStream {
		t.Fatalf("partition 1 after CloseAll: %v", err)
	}
}

// TestPushCancelBlockedRead: a consumer blocked waiting for data is
// released by its context — the contract deadline-aware stop relies
// on.
func TestPushCancelBlockedRead(t *testing.T) {
	p := withQueueDepth(NewPush(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := nextPoints(ctx, p.Partitions()[0], 16)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked read returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the blocked read")
	}
}

// TestPushConcurrentProducersOnePartition: several goroutines may
// share one partition's producer; batches interleave but none are
// lost.
func TestPushConcurrentProducersOnePartition(t *testing.T) {
	p := withQueueDepth(NewPush(1), 2)
	ctx := context.Background()
	const (
		writers    = 4
		perWriter  = 50
		batchSize  = 20
		wantPoints = writers * perWriter * batchSize
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := p.Producer(0)
			for i := 0; i < perWriter; i++ {
				if err := pr.Send(ctx, pushBatch(w*1000+i, batchSize)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		p.CloseAll()
	}()
	part := p.Partitions()[0]
	total := 0
	for {
		pts, err := nextPoints(ctx, part, 4096)
		if err == core.ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(pts)
	}
	if total != wantPoints {
		t.Fatalf("received %d points, want %d", total, wantPoints)
	}
}

// partCSV builds one CSV partition's text.
func partCSV(devOffset, rows int) string {
	var b strings.Builder
	b.WriteString("power,device\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d.5,dev%d\n", i%40, (devOffset+i)%15)
	}
	return b.String()
}

// TestPushIngestReadsAreIndependent: IngestStats only reads counters,
// so two reads with no send between them are equal, however far apart
// they are. A source that turned its counters into rates over a window
// that reads open and close would report the sends below as a new rate
// on the second read: the read before them opens the window, and the
// second read, 300 ms after the first, closes it.
func TestPushIngestReadsAreIndependent(t *testing.T) {
	p := NewPush(2)
	ctx := context.Background()
	p.IngestStats()
	if err := p.Producer(0).Send(ctx, pushBatch(0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := p.Producer(1).Send(ctx, pushBatch(0, 60)); err != nil {
		t.Fatal(err)
	}
	p.parts[1].blockedNanos.Add(int64(500 * time.Millisecond))

	first := p.IngestStats()
	start := time.Now()
	time.Sleep(300 * time.Millisecond)
	second := p.IngestStats()
	if gap := time.Since(start); gap < 300*time.Millisecond {
		t.Fatalf("reads %v apart, want >= 300ms", gap)
	}
	want := []core.PartitionIngestStats{
		{Queued: 1, Batches: 1, Points: 100},
		{Queued: 1, Batches: 1, Points: 60, BlockedNanos: int64(500 * time.Millisecond)},
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("first read %+v, want %+v", first, want)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("second read %+v differs from first %+v with no send between", second, first)
	}
}
