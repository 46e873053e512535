package ingest

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"macrobase/internal/core"
)

// drainValues reads the partition until end-of-stream, returning the
// delivered metric values.
func drainValues(t *testing.T, ps core.PartitionStream, max int) []float64 {
	t.Helper()
	var out []float64
	for {
		pts, err := nextPoints(context.Background(), ps, max)
		if err == core.ErrEndOfStream {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			out = append(out, pts[i].Metrics[0])
		}
	}
}

func requireRange(t *testing.T, label string, got []float64, lo, hi int) {
	t.Helper()
	if len(got) != hi-lo {
		t.Fatalf("%s: %d points, want %d", label, len(got), hi-lo)
	}
	for i, v := range got {
		if v != float64(lo+i) {
			t.Fatalf("%s: point %d = %v, want %d", label, i, v, lo+i)
		}
	}
}

// TestPushReplaySeekAndAck: with replay enabled a push partition
// reports offsets, seeks back over retained points, refuses seeks into
// acked (discarded) territory, and treats the ack as the trim point.
func TestPushReplaySeekAndAck(t *testing.T) {
	p := NewPush(1)
	p.EnableReplay()
	pr := p.Producer(0)
	ctx := context.Background()
	for b := 0; b < 3; b++ {
		if err := pr.Send(ctx, pushBatch(b*100, 100)); err != nil {
			t.Fatal(err)
		}
	}
	pr.Close()

	sk, ok := p.Partitions()[0].(core.CheckpointablePartition)
	if !ok {
		t.Fatal("replay-enabled push partition not seekable")
	}
	requireRange(t, "first pass", drainValues(t, sk, 128), 0, 300)
	if off := sk.Offset(); off != 300 {
		t.Fatalf("offset after drain = %d, want 300", off)
	}

	// Nothing acked yet: the whole stream is retained and replayable.
	if err := sk.SeekTo(100); err != nil {
		t.Fatal(err)
	}
	requireRange(t, "replay from 100", drainValues(t, sk, 128), 100, 300)

	// Ack discards whole batches below the mark; the seek window
	// shrinks accordingly.
	sk.Ack(200)
	if err := sk.SeekTo(150); err == nil || !strings.Contains(err.Error(), "acked") {
		t.Fatalf("seek below the ack mark: %v, want acked-range error", err)
	}
	if err := sk.SeekTo(301); err == nil {
		t.Fatal("seek past the end accepted")
	}
	if err := sk.SeekTo(200); err != nil {
		t.Fatal(err)
	}
	requireRange(t, "replay from 200", drainValues(t, sk, 128), 200, 300)

	// Seeking to the very end is legal and yields a clean EOF.
	if err := sk.SeekTo(300); err != nil {
		t.Fatal(err)
	}
	if pts, err := nextPoints(ctx, sk, 128); err != core.ErrEndOfStream {
		t.Fatalf("read at end: (%d, %v), want end of stream", len(pts), err)
	}
}

// TestPushAckPastCursorKeepsUndelivered: an Ack releases only what the
// cursor has passed. An ack of the whole stream that arrives after a
// seek back (a stale checkpoint of the run before the resume) must
// leave the points from the cursor on to be delivered.
func TestPushAckPastCursorKeepsUndelivered(t *testing.T) {
	p := NewPush(1)
	p.EnableReplay()
	pr := p.Producer(0)
	ctx := context.Background()
	for b := 0; b < 3; b++ {
		if err := pr.Send(ctx, pushBatch(b*100, 100)); err != nil {
			t.Fatal(err)
		}
	}
	pr.Close()
	part := p.parts[0]
	requireRange(t, "first pass", drainValues(t, part, 128), 0, 300)
	if err := part.SeekTo(100); err != nil {
		t.Fatal(err)
	}
	part.Ack(300)
	requireRange(t, "after a stale ack", drainValues(t, part, 128), 100, 300)
	part.Ack(300)
	if part.held != 0 || len(part.log) != 0 {
		t.Fatalf("after acking every delivered point the log holds %d points in %d batches", part.held, len(part.log))
	}
}

// TestPushSeekRequiresReplay: without EnableReplay there is no log to
// seek in, and the error says how to get one.
func TestPushSeekRequiresReplay(t *testing.T) {
	p := withQueueDepth(NewPush(1), 2)
	cp, ok := p.Partitions()[0].(core.CheckpointablePartition)
	if !ok {
		t.Fatal("push partition should always be checkpointable (offsets cost nothing)")
	}
	if err := cp.SeekTo(0); err == nil || !strings.Contains(err.Error(), "EnableReplay") {
		t.Fatalf("seek without replay: %v, want EnableReplay hint", err)
	}
	p.CloseAll()
}

// TestPushReplayCapacityStall: when the retained log hits its cap the
// consumer stalls rather than evicting unacked points — an Ack opens
// the window again. Bounded memory, at the price of backpressure.
func TestPushReplayCapacityStall(t *testing.T) {
	p := NewPush(1)
	p.EnableReplay()
	p.parts[0].rmax = 100 // a log that two 100-point batches overfill
	pr := p.Producer(0)
	ctx := context.Background()
	for b := 0; b < 2; b++ {
		if err := pr.Send(ctx, pushBatch(b*100, 100)); err != nil {
			t.Fatal(err)
		}
	}
	pr.Close()
	sk, _ := p.Partitions()[0].(core.CheckpointablePartition)

	// First batch fills the log to its cap.
	pts, err := nextPoints(ctx, sk, 128)
	if err != nil || len(pts) != 100 {
		t.Fatalf("first read: (%d, %v)", len(pts), err)
	}
	// The second read must stall: serving it would retain 200 unacked
	// points against a 100-point cap.
	read := make(chan int, 1)
	go func() {
		pts, err := nextPoints(ctx, sk, 128)
		if err != nil {
			read <- -1
			return
		}
		read <- len(pts)
	}()
	select {
	case n := <-read:
		t.Fatalf("read served %d points through a full replay log", n)
	case <-time.After(30 * time.Millisecond):
	}
	// Acking the consumed batch frees the log; the stalled read serves.
	sk.Ack(100)
	select {
	case n := <-read:
		if n != 100 {
			t.Fatalf("post-ack read served %d points, want 100", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ack did not wake the stalled consumer")
	}
}

// TestPushDeliveryIndependentOfReplay: replay decides only when a
// delivered batch is released and whether a dequeued batch may skip
// the log, never what a read returns. Producer batches smaller than,
// equal to and larger than max go through a replay-off and a
// replay-on partition; both must deliver the same points in the same
// per-read lengths (a batch in max-sized reads, then its remainder),
// with equal offsets after every read. The replay-off partition must
// hold no entry the cursor has passed, so even a one-point cap, which
// would stall a replay log at its first batch, never stalls it.
func TestPushDeliveryIndependentOfReplay(t *testing.T) {
	const max = 64
	sizes := []int{1, 63, 64, 65, 128, 200, 64, 7, 300, 2}
	var wantLens []int
	total := 0
	for _, n := range sizes {
		for left := n; left > 0; left -= max {
			wantLens = append(wantLens, min(left, max))
		}
		total += n
	}
	off, on := NewPush(1), NewPush(1)
	on.EnableReplay()
	off.parts[0].rmax = 1
	ctx := context.Background()
	for _, p := range []*Push{off, on} {
		go func(pr *PushProducer) {
			base := 0
			for _, n := range sizes {
				if err := pr.Send(ctx, pushBatch(base, n)); err != nil {
					t.Error(err)
				}
				base += n
			}
			pr.Close()
		}(p.Producer(0))
	}

	po, pn := off.parts[0], on.parts[0]
	seen := 0
	for read := 0; ; read++ {
		a, errOff := po.NextBatchInto(ctx, &core.Batch{}, max)
		b, errOn := pn.NextBatchInto(ctx, &core.Batch{}, max)
		if errOff != errOn {
			t.Fatalf("read %d: replay off returned %v, replay on %v", read, errOff, errOn)
		}
		if errOff == core.ErrEndOfStream {
			if read != len(wantLens) {
				t.Fatalf("%d reads, want %d", read, len(wantLens))
			}
			break
		}
		if errOff != nil {
			t.Fatal(errOff)
		}
		if read >= len(wantLens) || a.Len() != wantLens[read] || b.Len() != wantLens[read] {
			t.Fatalf("read %d: replay off %d points, replay on %d, want %d", read, a.Len(), b.Len(), wantLens[min(read, len(wantLens)-1)])
		}
		for i := range a.Points() {
			va, vb := a.Points()[i].Metrics[0], b.Points()[i].Metrics[0]
			if va != float64(seen+i) || vb != float64(seen+i) {
				t.Fatalf("read %d point %d: replay off %v, replay on %v, want %d", read, i, va, vb, seen+i)
			}
		}
		seen += a.Len()
		if po.Offset() != pn.Offset() || po.Offset() != int64(seen) {
			t.Fatalf("read %d: offsets %d (replay off) and %d (replay on), want %d", read, po.Offset(), pn.Offset(), seen)
		}
		po.mu.Lock()
		held := len(po.log) > 0 && po.log[0].end() <= po.delivered.Load()
		po.mu.Unlock()
		if held {
			t.Fatalf("read %d: replay off still holds a batch the cursor has passed", read)
		}
	}
	if seen != total {
		t.Fatalf("delivered %d points, want %d", seen, total)
	}
}

// TestPushCloseDrainRace hammers the close-then-drain window: senders
// racing a close may get an error for a batch that was in fact
// enqueued (at-least-once, the harmless direction), but a nil Send
// return is a delivery guarantee and no invented points ever appear.
func TestPushCloseDrainRace(t *testing.T) {
	const (
		rounds      = 60
		senders     = 4
		perSender   = 40
		batchPoints = 10
	)
	for round := 0; round < rounds; round++ {
		p := withQueueDepth(NewPush(1), 2)
		var attempted, confirmed atomic.Int64
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				pr := p.Producer(0)
				for k := 0; k < perSender; k++ {
					attempted.Add(batchPoints)
					if err := pr.Send(context.Background(), pushBatch(k*batchPoints, batchPoints)); err != nil {
						attempted.Add(int64((perSender - k - 1) * batchPoints))
						return // closed under us: remaining sends would also fail
					}
					confirmed.Add(batchPoints)
				}
			}(s)
		}
		closed := make(chan struct{})
		go func() {
			time.Sleep(time.Duration(round%5) * 20 * time.Microsecond)
			p.CloseAll()
			close(closed)
		}()
		var received int64
		part := p.Partitions()[0]
		for {
			pts, err := nextPoints(context.Background(), part, 4096)
			if err != nil {
				break
			}
			received += int64(len(pts))
		}
		wg.Wait()
		<-closed
		if received < confirmed.Load() {
			t.Fatalf("round %d: %d points received < %d confirmed by Send — acknowledged data lost", round, received, confirmed.Load())
		}
		if received > attempted.Load() {
			t.Fatalf("round %d: %d points received > %d attempted — points invented", round, received, attempted.Load())
		}
	}
}

// TestPushConcurrentClose: Close and CloseAll from many goroutines at
// once must be an idempotent no-op pile-up, not a panic.
func TestPushConcurrentClose(t *testing.T) {
	p := withQueueDepth(NewPush(2), 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				p.CloseAll()
			} else {
				p.Producer(i % 2).Close()
			}
		}(i)
	}
	wg.Wait()
	for _, ps := range p.Partitions() {
		if _, err := nextPoints(context.Background(), ps, 16); err != core.ErrEndOfStream {
			t.Fatalf("closed empty partition read: %v", err)
		}
	}
}
