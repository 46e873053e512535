package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// TestPushWindowedRates drives the rate sampler through a fake clock:
// the first stats read anchors the window and reports zero gauges, a
// read one second later reports the per-second deltas, and a mid-window
// read keeps serving the previous window's gauges instead of computing
// rates over a sliver of wall clock.
func TestPushWindowedRates(t *testing.T) {
	p := NewPush(2)
	clock := time.Unix(1_000_000, 0)
	p.now = func() time.Time { return clock }

	ctx := context.Background()
	if err := p.Producer(0).Send(ctx, pushBatch(0, 100)); err != nil {
		t.Fatal(err)
	}

	// First read: anchors the window, gauges are zero.
	st := p.IngestStats(nil)
	if st[0].PointsPerSec != 0 || st[0].BatchesPerSec != 0 || st[0].BlockedPerSec != 0 {
		t.Errorf("rates before first window: %+v", st[0])
	}

	// One second later, after more traffic on both partitions and some
	// simulated backpressure on partition 1.
	if err := p.Producer(0).Send(ctx, pushBatch(100, 150)); err != nil {
		t.Fatal(err)
	}
	if err := p.Producer(1).Send(ctx, pushBatch(0, 60)); err != nil {
		t.Fatal(err)
	}
	p.parts[1].blockedNanos.Add(int64(500 * time.Millisecond))
	clock = clock.Add(time.Second)
	st = p.IngestStats(st[:0])
	if st[0].PointsPerSec != 150 || st[0].BatchesPerSec != 1 {
		t.Errorf("partition 0 window rates: points/s %v batches/s %v, want 150, 1",
			st[0].PointsPerSec, st[0].BatchesPerSec)
	}
	if st[1].PointsPerSec != 60 || st[1].BlockedPerSec != 0.5 {
		t.Errorf("partition 1 window rates: points/s %v blocked/s %v, want 60, 0.5",
			st[1].PointsPerSec, st[1].BlockedPerSec)
	}

	// Mid-window read: previous gauges survive, cumulative counters move.
	if err := p.Producer(0).Send(ctx, pushBatch(250, 10)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(p.rateWindow / 2)
	st = p.IngestStats(st[:0])
	if st[0].Points != 260 {
		t.Errorf("cumulative points %d, want 260", st[0].Points)
	}
	if st[0].PointsPerSec != 150 {
		t.Errorf("mid-window read recomputed the gauge: %v, want previous 150", st[0].PointsPerSec)
	}

	// Next full window: only the 10-point batch landed in it.
	clock = clock.Add(p.rateWindow)
	st = p.IngestStats(st[:0])
	wantPts := 10 / (p.rateWindow.Seconds() * 1.5)
	if math.Abs(st[0].PointsPerSec-wantPts) > 1e-9 {
		t.Errorf("second window points/s %v, want %v", st[0].PointsPerSec, wantPts)
	}
	if st[1].PointsPerSec != 0 {
		t.Errorf("idle partition 1 points/s %v, want 0", st[1].PointsPerSec)
	}
}
