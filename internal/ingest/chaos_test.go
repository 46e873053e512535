package ingest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// chaosPoints builds n one-metric points with distinct values so
// delivery order and multiplicity are observable.
func chaosPoints(n int) []core.Point {
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = core.Point{Metrics: []float64{float64(i)}, Attrs: []int32{int32(i % 7)}}
	}
	return pts
}

// driveChaos reads a chaos-wrapped slice stream to exhaustion and
// returns the delivered metric values plus a trace of read outcomes
// ("ok:<n>" or "err@<read>:<transient>") for determinism comparisons.
func driveChaos(t *testing.T, n int, plan ChaosPlan, max int) (values []float64, trace []string) {
	t.Helper()
	inner := core.SourcePartitions(core.NewSliceSource(chaosPoints(n))).Partitions()[0]
	cp := NewChaosPartition(inner, plan)
	ctx := context.Background()
	for {
		pts, err := nextPoints(ctx, cp, max)
		if err == core.ErrEndOfStream {
			return values, trace
		}
		if err != nil {
			if !core.IsTransient(err) {
				t.Fatalf("plan injects only transient faults, got %v", err)
			}
			trace = append(trace, fmt.Sprintf("err@%d", cp.Reads()))
			continue
		}
		trace = append(trace, fmt.Sprintf("ok:%d", len(pts)))
		for i := range pts {
			values = append(values, pts[i].Metrics[0])
		}
	}
}

// TestChaosPartitionDeterministicFaults: the same (plan, seed) injects
// the identical fault sequence; a different seed injects a different
// one; transient-only plans lose and reorder nothing.
func TestChaosPartitionDeterministicFaults(t *testing.T) {
	const n = 10_000
	plan := ChaosPlan{Seed: 42, TransientErrorRate: 0.3}
	v1, t1 := driveChaos(t, n, plan, 256)
	v2, t2 := driveChaos(t, n, plan, 256)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed produced different fault traces")
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("same seed produced different deliveries")
	}
	plan.Seed = 43
	_, t3 := driveChaos(t, n, plan, 256)
	if reflect.DeepEqual(t1, t3) {
		t.Error("different seeds produced identical fault traces")
	}
	// Transient faults are delays, not data loss: delivery is the
	// original sequence exactly.
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)
	}
	if !reflect.DeepEqual(v1, want) {
		t.Error("transient-only chaos perturbed the delivered sequence")
	}
	errs := 0
	for _, s := range t1 {
		if strings.HasPrefix(s, "err@") {
			errs++
		}
	}
	if errs == 0 {
		t.Error("0.3 error rate over 10k points injected nothing")
	}
}

// TestChaosPartitionReordersWithoutLoss: reordering swaps delivery
// order but every point still arrives exactly once.
func TestChaosPartitionReordersWithoutLoss(t *testing.T) {
	const n = 3000
	got, _ := driveChaos(t, n, ChaosPlan{Seed: 9, ReorderRate: 0.5}, 100)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)
	}
	if reflect.DeepEqual(got, want) {
		t.Fatal("0.5 reorder rate left the order untouched")
	}
	sorted := append([]float64(nil), got...)
	sort.Float64s(sorted)
	if !reflect.DeepEqual(sorted, want) {
		t.Fatalf("reordering lost or duplicated points: %d delivered, want %d distinct", len(got), n)
	}
}

// TestChaosPartitionDuplicatesOnlyAdd: duplication re-delivers copies;
// it never loses points and never invents values.
func TestChaosPartitionDuplicatesOnlyAdd(t *testing.T) {
	const n = 3000
	got, _ := driveChaos(t, n, ChaosPlan{Seed: 5, DuplicateRate: 0.4}, 100)
	if len(got) <= n {
		t.Fatalf("0.4 duplicate rate delivered %d points, want > %d", len(got), n)
	}
	counts := map[float64]int{}
	for _, v := range got {
		counts[v]++
	}
	for i := 0; i < n; i++ {
		if counts[float64(i)] < 1 {
			t.Fatalf("point %d lost under duplication", i)
		}
		delete(counts, float64(i))
	}
	if len(counts) != 0 {
		t.Fatalf("duplication invented values: %v", counts)
	}
}

// TestChaosPartitionFatalFailure: the fatal fault fires at the exact
// configured read, is not transient, and persists.
func TestChaosPartitionFatalFailure(t *testing.T) {
	inner := core.SourcePartitions(core.NewSliceSource(chaosPoints(1000))).Partitions()[0]
	cp := NewChaosPartition(inner, ChaosPlan{Seed: 1, FatalAfterReads: 3})
	ctx := context.Background()
	for r := 1; r <= 2; r++ {
		if _, err := nextPoints(ctx, cp, 100); err != nil {
			t.Fatalf("read %d failed before the fatal point: %v", r, err)
		}
	}
	_, err := nextPoints(ctx, cp, 100)
	if err == nil || !strings.Contains(err.Error(), "read 3") {
		t.Fatalf("read 3: %v, want injected fatal", err)
	}
	if core.IsTransient(err) {
		t.Error("fatal fault classified transient")
	}
	if _, err := nextPoints(ctx, cp, 100); err == nil {
		t.Error("fatal fault did not persist")
	}
	if cp.Reads() != 4 {
		t.Errorf("reads = %d, want 4", cp.Reads())
	}
}

// TestChaosPartitionStallRespectsContext: an injected stall longer
// than the caller's deadline surfaces the context error — the shape
// per-attempt timeouts exist to catch.
func TestChaosPartitionStallRespectsContext(t *testing.T) {
	inner := core.SourcePartitions(core.NewSliceSource(chaosPoints(1000))).Partitions()[0]
	cp := NewChaosPartition(inner, ChaosPlan{Seed: 1, StallRate: 1, Stall: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := nextPoints(ctx, cp, 100)
	if err != context.DeadlineExceeded {
		t.Fatalf("stalled read: %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("stall ignored the context for %v", elapsed)
	}
	if !core.IsTransient(err) {
		t.Error("deadline from a stalled read should be transient (retryable)")
	}
}

// TestChaosSourceStablePartitions: the wrappers are built once (a
// session and its checkpoint layer must see the same objects) and
// expose the inner streams to capability probes.
func TestChaosSourceStablePartitions(t *testing.T) {
	p := NewPush(2, 2)
	cs := NewChaosSource(p, ChaosPlan{Seed: 3, TransientErrorRate: 0.1})
	a, b := cs.Partitions(), cs.Partitions()
	if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatal("ChaosSource partitions not stable across calls")
	}
	inner := p.Partitions()
	for i, ps := range a {
		u, ok := ps.(core.PartitionUnwrapper)
		if !ok || u.Unwrap() != inner[i] {
			t.Errorf("partition %d does not unwrap to the push partition", i)
		}
	}
	p.CloseAll()
}

// TestTornFramesRejectedCleanly: a mid-frame connection cut must never
// panic the decoder or smuggle rows past the tear — each torn stream
// decodes to a strict prefix of the original rows, ending in EOF (cut
// landed on a row boundary) or a framing error.
func TestTornFramesRejectedCleanly(t *testing.T) {
	const rows = 20
	frames := binStream(t, rows)
	sawError := false
	for seed := uint64(1); seed <= 12; seed++ {
		torn := TornFrames(frames, seed)
		if len(torn) >= len(frames) {
			t.Fatalf("seed %d: torn stream not shorter (%d vs %d)", seed, len(torn), len(frames))
		}
		d := NewBinaryRowReader(bytes.NewReader(torn), binSchema, encode.NewEncoder("device", "version"))
		b := &core.Batch{}
		var err error
		for err == nil {
			_, err = d.ReadInto(b, 8)
		}
		if err != io.EOF {
			sawError = true
		}
		if b.Len() >= rows {
			t.Fatalf("seed %d: %d rows decoded from a torn stream of %d", seed, b.Len(), rows)
		}
		for i, p := range b.Points() {
			if p.Metrics[0] != float64(i) || p.Metrics[1] != float64(i)/2 {
				t.Fatalf("seed %d: decoded row %d is not a prefix row: %+v", seed, i, p)
			}
		}
	}
	if !sawError {
		t.Error("no seed produced a mid-frame tear; TornFrames is not tearing")
	}
	// The degenerate input (shorter than the magic) passes through.
	small := []byte{1, 2, 3}
	if got := TornFrames(small, 1); !bytes.Equal(got, small) {
		t.Errorf("short input mangled: %v", got)
	}
}
