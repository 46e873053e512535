package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// scriptStep is one scripted read outcome for scriptPartition.
type scriptStep struct {
	pts []Point
	err error
}

// scriptPartition replays a fixed sequence of read outcomes, then ends
// the stream; it counts how many reads were attempted against it.
type scriptPartition struct {
	steps []scriptStep
	i     int
	reads int
}

func (s *scriptPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	s.reads++
	if s.i >= len(s.steps) {
		return nil, ErrEndOfStream
	}
	st := s.steps[s.i]
	s.i++
	if st.err != nil {
		return nil, st.err
	}
	dst.AppendPoints(st.pts)
	return dst, nil
}

// stallPartition blocks in NextBatchInto until its context ends, for the
// configured number of initial reads, then delivers.
type stallPartition struct {
	stalls int
	reads  int
	pts    []Point
}

func (s *stallPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	s.reads++
	if s.reads <= s.stalls {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if s.pts == nil {
		return nil, ErrEndOfStream
	}
	dst.AppendPoints(s.pts)
	s.pts = nil
	return dst, nil
}

type taggedTransientErr struct{ transient bool }

func (e taggedTransientErr) Error() string   { return "tagged" }
func (e taggedTransientErr) Transient() bool { return e.transient }

func transientErr(msg string) error {
	return fmt.Errorf("%s: %w", msg, ErrTransient)
}

// fastRetry is a test policy with negligible backoff.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Seed: 1}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"wrapped sentinel", transientErr("broker rebalance"), true},
		{"bare sentinel", ErrTransient, true},
		{"deadline", context.DeadlineExceeded, true},
		{"wrapped deadline", fmt.Errorf("read: %w", context.DeadlineExceeded), true},
		{"cancellation", context.Canceled, false},
		{"wrapped cancellation", fmt.Errorf("read: %w", context.Canceled), false},
		{"Transient() true", taggedTransientErr{transient: true}, true},
		{"Transient() false", taggedTransientErr{transient: false}, false},
		{"plain error", errors.New("corrupt frame"), false},
		{"end of stream", ErrEndOfStream, false},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryPartitionAbsorbsTransientErrors: transient failures below
// the attempt budget are invisible to the consumer, and counted.
func TestRetryPartitionAbsorbsTransientErrors(t *testing.T) {
	pts := streamPoints(10)
	inner := &scriptPartition{steps: []scriptStep{
		{err: transientErr("blip 1")},
		{err: transientErr("blip 2")},
		{pts: pts},
	}}
	rp := NewRetryPartition(inner, fastRetry(5))
	got, err := nextPoints(context.Background(), rp, 64)
	if err != nil || len(got) != len(pts) {
		t.Fatalf("read through faults: (%d, %v), want (%d, nil)", len(got), err, len(pts))
	}
	if _, err := nextPoints(context.Background(), rp, 64); err != ErrEndOfStream {
		t.Fatalf("after script: %v, want end of stream", err)
	}
	if n := rp.Retries(); n != 2 {
		t.Errorf("retries = %d, want 2", n)
	}
	if inner.reads != 4 {
		t.Errorf("inner reads = %d, want 4 (2 faults + 1 success + 1 EOF)", inner.reads)
	}
}

// TestRetryPartitionFatalPropagatesImmediately: non-transient errors
// are not worth a second attempt.
func TestRetryPartitionFatalPropagatesImmediately(t *testing.T) {
	boom := errors.New("corrupt frame")
	inner := &scriptPartition{steps: []scriptStep{{err: boom}}}
	rp := NewRetryPartition(inner, fastRetry(5))
	if _, err := nextPoints(context.Background(), rp, 64); !errors.Is(err, boom) {
		t.Fatalf("fatal read: %v, want boom", err)
	}
	if inner.reads != 1 {
		t.Errorf("inner reads = %d, want 1 (no retry on fatal)", inner.reads)
	}
	if n := rp.Retries(); n != 0 {
		t.Errorf("retries = %d, want 0", n)
	}
}

// TestRetryPartitionExhaustsAttempts: a persistent transient fault
// propagates after MaxAttempts tries, wrapped with the attempt count
// and still recognizable as the underlying error.
func TestRetryPartitionExhaustsAttempts(t *testing.T) {
	inner := &scriptPartition{steps: []scriptStep{
		{err: transientErr("down")},
		{err: transientErr("down")},
		{err: transientErr("down")},
		{err: transientErr("down")},
	}}
	rp := NewRetryPartition(inner, fastRetry(3))
	_, err := nextPoints(context.Background(), rp, 64)
	if err == nil {
		t.Fatal("exhausted read returned nil")
	}
	if !strings.Contains(err.Error(), "retries exhausted after 3 attempts") {
		t.Errorf("exhaustion message: %v", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("exhaustion error lost the cause chain: %v", err)
	}
	if inner.reads != 3 {
		t.Errorf("inner reads = %d, want 3", inner.reads)
	}
	if n := rp.Retries(); n != 2 {
		t.Errorf("retries = %d, want 2", n)
	}
}

// TestRetryPartitionEndOfStreamPassesThrough: EOF is a result, not a
// fault.
func TestRetryPartitionEndOfStreamPassesThrough(t *testing.T) {
	inner := &scriptPartition{}
	rp := NewRetryPartition(inner, fastRetry(5))
	if _, err := nextPoints(context.Background(), rp, 64); err != ErrEndOfStream {
		t.Fatalf("EOF: %v", err)
	}
	if inner.reads != 1 {
		t.Errorf("inner reads = %d, want 1", inner.reads)
	}
}

// TestRetryPartitionAttemptTimeout: a stalled read is cancelled at the
// attempt deadline, classified transient, and retried — a hung broker
// becomes a retry instead of a hang.
func TestRetryPartitionAttemptTimeout(t *testing.T) {
	pts := streamPoints(5)
	inner := &stallPartition{stalls: 2, pts: pts}
	pol := fastRetry(5)
	pol.AttemptTimeout = 10 * time.Millisecond
	rp := NewRetryPartition(inner, pol)
	got, err := nextPoints(context.Background(), rp, 64)
	if err != nil || len(got) != len(pts) {
		t.Fatalf("read through stalls: (%d, %v)", len(got), err)
	}
	if n := rp.Retries(); n != 2 {
		t.Errorf("retries = %d, want 2 (one per stalled attempt)", n)
	}
}

// TestRetryPartitionAttemptTimeoutExhaustion: a permanently hung source
// surfaces a deadline error after the attempt budget, bounded in time.
func TestRetryPartitionAttemptTimeoutExhaustion(t *testing.T) {
	inner := &stallPartition{stalls: 1 << 30}
	pol := fastRetry(2)
	pol.AttemptTimeout = 5 * time.Millisecond
	rp := NewRetryPartition(inner, pol)
	_, err := nextPoints(context.Background(), rp, 64)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung source: %v, want deadline exceeded", err)
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Errorf("hung source error not marked exhausted: %v", err)
	}
}

// TestRetryPartitionParentCancellation: cancelling the parent context
// wins over the retry loop — stops must not be retried away.
func TestRetryPartitionParentCancellation(t *testing.T) {
	steps := make([]scriptStep, 10)
	for i := range steps {
		steps[i] = scriptStep{err: transientErr("down")}
	}
	inner := &scriptPartition{steps: steps}
	pol := fastRetry(5)
	pol.BaseDelay = time.Hour // park the loop in backoff
	pol.MaxDelay = time.Hour
	rp := NewRetryPartition(inner, pol)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := nextPoints(ctx, rp, 64)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled retry: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// scriptBatchPartition is a scriptPartition whose failing attempts can
// leave half-written points in dst, which the retry wrapper must
// discard.
type scriptBatchPartition struct {
	scriptPartition
	garbageFirst int // attempts that append garbage before erroring
}

func (s *scriptBatchPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	if s.garbageFirst > 0 {
		s.garbageFirst--
		s.reads++
		garbage := Point{Metrics: []float64{-1e18}, Attrs: []int32{99}}
		dst.AppendPoint(&garbage)
		return nil, transientErr("died mid-fill")
	}
	return s.scriptPartition.NextBatchInto(ctx, dst, max)
}

// TestRetryBatchPartitionResetsBetweenAttempts: the wrapper never leaks
// a failed attempt's partial fill into the delivered batch.
func TestRetryBatchPartitionResetsBetweenAttempts(t *testing.T) {
	pts := streamPoints(7)
	inner := &scriptBatchPartition{
		scriptPartition: scriptPartition{steps: []scriptStep{{pts: pts}}},
		garbageFirst:    2,
	}
	rp := NewRetryPartition(inner, fastRetry(5))
	var dst Batch
	got, err := rp.NextBatchInto(context.Background(), &dst, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(pts) {
		t.Fatalf("delivered %d points, want %d (failed attempts leaked into the batch?)", got.Len(), len(pts))
	}
	for i, p := range got.Points() {
		if p.Metrics[0] != pts[i].Metrics[0] {
			t.Fatalf("point %d corrupted: %v", i, p.Metrics[0])
		}
	}
}

// flakyPartsSource exposes scripted partitions as a PartitionedSource.
type flakyPartsSource struct{ parts []PartitionStream }

func (s *flakyPartsSource) Partitions() []PartitionStream { return s.parts }

// TestRetrySourceSurfacesRetryCounters: NewRetrySource wraps every
// partition and reports per-partition retry counts through IngestStats,
// even when the inner source is not observable.
func TestRetrySourceSurfacesRetryCounters(t *testing.T) {
	pts := streamPoints(5)
	src := &flakyPartsSource{parts: []PartitionStream{
		&scriptPartition{steps: []scriptStep{{err: transientErr("a")}, {err: transientErr("b")}, {pts: pts}}},
		&scriptPartition{steps: []scriptStep{{pts: pts}}},
	}}
	rs := NewRetrySource(src, fastRetry(5))
	ctx := context.Background()
	for _, ps := range rs.Partitions() {
		for {
			if _, err := nextPoints(ctx, ps, 64); err != nil {
				if err != ErrEndOfStream {
					t.Fatal(err)
				}
				break
			}
		}
	}
	st := rs.IngestStats(nil)
	if len(st) != 2 {
		t.Fatalf("ingest stats entries = %d, want 2", len(st))
	}
	if st[0].Retries != 2 || st[1].Retries != 0 {
		t.Errorf("retry counters = [%d, %d], want [2, 0]", st[0].Retries, st[1].Retries)
	}
	// Partitions is stable: the engine and the stats reader must see
	// the same wrappers.
	p1, p2 := rs.Partitions(), rs.Partitions()
	if len(p1) != 2 || p1[0] != p2[0] || p1[1] != p2[1] {
		t.Error("Partitions not stable across calls")
	}
}

// ckScriptPartition adds the offset protocol to scriptPartition.
type ckScriptPartition struct {
	scriptPartition
	delivered int64
}

func (s *ckScriptPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	b, err := s.scriptPartition.NextBatchInto(ctx, dst, max)
	if err == nil {
		s.delivered += int64(b.Len())
	}
	return b, err
}
func (s *ckScriptPartition) Offset() int64 { return s.delivered }
func (s *ckScriptPartition) Ack(int64)     {}

// TestCapabilityProbesUnwrapDecorators: AsCheckpointable and AsSeekable
// must reach a checkpointable stream through retry (and any other
// Unwrap-capable) decorator layers, and report absence honestly.
func TestCapabilityProbesUnwrapDecorators(t *testing.T) {
	inner := &ckScriptPartition{}
	wrapped := NewRetryPartition(inner, fastRetry(2))
	cp, ok := AsCheckpointable(wrapped)
	if !ok {
		t.Fatal("checkpointable stream not found through retry wrapper")
	}
	if cp != CheckpointablePartition(inner) {
		t.Error("probe returned a different stream than the wrapped one")
	}
	if _, ok := AsSeekable(wrapped); ok {
		t.Error("non-seekable stream reported seekable")
	}
	if _, ok := AsCheckpointable(NewRetryPartition(&scriptPartition{}, fastRetry(2))); ok {
		t.Error("plain stream reported checkpointable through wrapper")
	}
}
