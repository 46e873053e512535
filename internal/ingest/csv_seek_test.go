package ingest

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// drainRows reads a CSV partition to exhaustion, returning (metric,
// attr-id) pairs.
func drainRows(t *testing.T, ps core.PartitionStream) (metrics []float64, attrs []int32) {
	t.Helper()
	for {
		pts, err := nextPoints(context.Background(), ps, 128)
		if err == core.ErrEndOfStream {
			return metrics, attrs
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			metrics = append(metrics, pts[i].Metrics[0])
			attrs = append(attrs, pts[i].Attrs[0])
		}
	}
}

// TestPartitionedCSVSeek: a path-opened CSV partition reports row
// offsets and seeks by reopening the file — the replay path resume
// depends on.
func TestPartitionedCSVSeek(t *testing.T) {
	const rows = 200
	dir := t.TempDir()
	path := filepath.Join(dir, "part0.csv")
	if err := os.WriteFile(path, []byte(partCSV(3, rows)), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}
	enc := encode.NewEncoder("device")
	src, err := OpenPartitionedCSV(schema, enc, path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	sk, ok := core.AsSeekable(src.Partitions()[0])
	if !ok {
		t.Fatal("path-opened CSV partition not seekable")
	}
	refM, refA := drainRows(t, sk)
	if len(refM) != rows {
		t.Fatalf("read %d rows, want %d", len(refM), rows)
	}
	if off := sk.Offset(); off != rows {
		t.Fatalf("offset after drain = %d, want %d", off, rows)
	}

	// Seek into the middle: the tail replays identically (same values,
	// same interned attribute ids — the encoder is shared).
	if err := sk.SeekTo(50); err != nil {
		t.Fatal(err)
	}
	m, a := drainRows(t, sk)
	if len(m) != rows-50 {
		t.Fatalf("tail replay: %d rows, want %d", len(m), rows-50)
	}
	for i := range m {
		if m[i] != refM[50+i] || a[i] != refA[50+i] {
			t.Fatalf("tail row %d = (%v, %d), want (%v, %d)", i, m[i], a[i], refM[50+i], refA[50+i])
		}
	}

	// Seek to zero: full replay.
	if err := sk.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	m, _ = drainRows(t, sk)
	if len(m) != rows {
		t.Fatalf("full replay: %d rows, want %d", len(m), rows)
	}

	// Seeking to the current position is a no-op (the resume fast
	// path: a fresh source is already at offset 0).
	if err := sk.SeekTo(int64(rows)); err != nil {
		t.Fatal(err)
	}
	if _, err := nextPoints(context.Background(), sk, 16); err != core.ErrEndOfStream {
		t.Fatalf("read after seek-to-end: %v", err)
	}

	// Acks are accepted and ignored — files are their own durability.
	ck, _ := core.AsCheckpointable(src.Partitions()[0])
	ck.Ack(100)
	if err := sk.SeekTo(0); err != nil {
		t.Fatalf("seek below an ignored ack: %v", err)
	}
}

// TestPartitionedCSVReaderNotSeekable: reader-backed partitions cannot
// reopen their input; the error points at the path-based constructor.
func TestPartitionedCSVReaderNotSeekable(t *testing.T) {
	schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}
	src, err := NewPartitionedCSV(schema, encode.NewEncoder("device"), strings.NewReader(partCSV(0, 10)))
	if err != nil {
		t.Fatal(err)
	}
	sk, ok := core.AsSeekable(src.Partitions()[0])
	if !ok {
		t.Fatal("reader-backed partition should still expose the seek protocol (failing the call, not the probe)")
	}
	// Seeking to the current position needs no reopen, so it succeeds
	// even without a path.
	if err := sk.SeekTo(0); err != nil {
		t.Fatalf("no-op seek on a reader-backed partition: %v", err)
	}
	drainRows(t, sk)
	if err := sk.SeekTo(0); err == nil || !strings.Contains(err.Error(), "OpenPartitionedCSV") {
		t.Fatalf("reader-backed seek: %v, want OpenPartitionedCSV hint", err)
	}
}
