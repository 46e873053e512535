package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

var binSchema = Schema{Metrics: []string{"power", "latency"}, Attributes: []string{"device", "version"}, TimeColumn: "t"}

// binStream builds a binary buffer of n deterministic rows.
func binStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryRowWriter(&buf)
	for i := 0; i < n; i++ {
		err := w.WriteRow(
			[]float64{float64(i), float64(i) / 2},
			[]string{fmt.Sprintf("d%d", i%13), fmt.Sprintf("v%d", i%3)},
			float64(i)+0.25,
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestBinaryRowsRoundTrip: write rows, read them back, and verify
// values and attribute decoding bit-for-bit.
func TestBinaryRowsRoundTrip(t *testing.T) {
	const n = 500
	data := binStream(t, n)
	enc := encode.NewEncoder("device", "version")
	d := NewBinaryRowReader(bytes.NewReader(data), binSchema, enc)
	b := &core.Batch{}
	total := 0
	for {
		got, err := d.ReadInto(b, 64)
		total += got
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != n || b.Len() != n {
		t.Fatalf("decoded %d rows (batch %d), want %d", total, b.Len(), n)
	}
	pts := b.Points()
	for i := 0; i < n; i++ {
		p := &pts[i]
		if p.Metrics[0] != float64(i) || p.Metrics[1] != float64(i)/2 || p.Time != float64(i)+0.25 {
			t.Fatalf("row %d values: %+v", i, p)
		}
		if enc.Decode(p.Attrs[0]).Value != fmt.Sprintf("d%d", i%13) ||
			enc.Decode(p.Attrs[1]).Value != fmt.Sprintf("v%d", i%3) {
			t.Fatalf("row %d attrs decode wrong: %v %v", i, enc.Decode(p.Attrs[0]), enc.Decode(p.Attrs[1]))
		}
	}
}

// TestBinaryRowsErrors: bad magic, truncation, schema arity mismatch,
// trailing garbage in a row body, and oversized length prefixes all
// fail with latched, row-numbered errors.
func TestBinaryRowsErrors(t *testing.T) {
	enc := encode.NewEncoder("device", "version")
	fresh := func(data []byte) (*BinaryRowReader, *core.Batch) {
		return NewBinaryRowReader(bytes.NewReader(data), binSchema, enc), &core.Batch{}
	}

	// An entirely empty stream is zero rows, not an error (an empty
	// eof-only push request is legal).
	d, b := fresh(nil)
	if n, err := d.ReadInto(b, 10); n != 0 || err != io.EOF {
		t.Fatalf("empty stream: (%d, %v), want (0, EOF)", n, err)
	}

	// A partial magic is a truncation error.
	d, b = fresh([]byte("MB"))
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("partial magic: %v", err)
	}

	// Bad magic.
	d, b = fresh([]byte("NOPE----"))
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	// Error latched.
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("error not latched: %v", err)
	}

	// Truncated body.
	data := binStream(t, 3)
	d, b = fresh(data[:len(data)-4])
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation: %v", err)
	}

	// Arity mismatch: encode under a 1-metric schema, decode under the
	// 2-metric one.
	var buf bytes.Buffer
	w := NewBinaryRowWriter(&buf)
	if err := w.WriteRow([]float64{1}, []string{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	d, b = fresh(buf.Bytes())
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "metrics, want") {
		t.Fatalf("metric arity: %v", err)
	}

	// Attribute arity mismatch.
	buf.Reset()
	w = NewBinaryRowWriter(&buf)
	if err := w.WriteRow([]float64{1, 2}, []string{"only-one"}, 0); err != nil {
		t.Fatal(err)
	}
	d, b = fresh(buf.Bytes())
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "attributes, want") {
		t.Fatalf("attr arity: %v", err)
	}

	// Hostile length prefix.
	hostile := append([]byte(BinaryMagic), 0xff, 0xff, 0xff, 0xff, 0x7f)
	d, b = fresh(hostile)
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("length cap: %v", err)
	}

	// Trailing bytes inside a declared row body.
	good := binStream(t, 1)
	bad := append([]byte{}, good...)
	bad[len(BinaryMagic)]++ // inflate the first row's declared length by 1
	bad = append(bad, 0x00) // and supply the extra byte
	d, b = fresh(bad)
	if _, err := d.ReadInto(b, 10); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}

	// NaN or infinite metrics and times.
	for _, tc := range []struct {
		name    string
		metrics []float64
		time    float64
	}{
		{"NaN metric", []float64{1, math.NaN()}, 0},
		{"-Inf metric", []float64{math.Inf(-1), 2}, 0},
		{"+Inf time", []float64{1, 2}, math.Inf(1)},
	} {
		buf.Reset()
		w = NewBinaryRowWriter(&buf)
		if err := w.WriteRow([]float64{1, 2}, []string{"a", "b"}, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRow(tc.metrics, []string{"a", "b"}, tc.time); err != nil {
			t.Fatal(err)
		}
		d, b = fresh(buf.Bytes())
		if _, err := d.ReadInto(b, 10); !errors.Is(err, errNonFinite) || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%s: %v, want a row 2 non-finite error", tc.name, err)
		}
	}

	// Partial reads respect max and resume.
	d, b = fresh(binStream(t, 10))
	if n, err := d.ReadInto(b, 4); n != 4 || err != nil {
		t.Fatalf("partial read: (%d, %v)", n, err)
	}
	if n, err := d.ReadInto(b, 100); n != 6 || err != io.EOF {
		t.Fatalf("resume read: (%d, %v), want (6, EOF)", n, err)
	}
}

// TestBinaryRowsZeroTime: WriteRowTimed can flag a meaningful zero
// time; WriteRow omits the time field for zero (compactness) and the
// reader yields 0 either way.
func TestBinaryRowsZeroTime(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryRowWriter(&buf)
	if err := w.WriteRowTimed([]float64{1, 2}, []string{"a", "b"}, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]float64{3, 4}, []string{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	timed := buf.Len()
	enc := encode.NewEncoder("device", "version")
	d := NewBinaryRowReader(bytes.NewReader(buf.Bytes()), binSchema, enc)
	b := &core.Batch{}
	if _, err := d.ReadInto(b, 10); err != io.EOF {
		t.Fatal(err)
	}
	pts := b.Points()
	if len(pts) != 2 || pts[0].Time != 0 || pts[1].Time != 0 {
		t.Fatalf("times: %+v", pts)
	}
	_ = timed
}

// TestBinaryRowsDecodeAllocFree pins the binary decode path's
// steady-state allocation bound: with a warm encoder, a pooled reader,
// and a recycled batch, decoding 1024 rows costs zero allocations.
func TestBinaryRowsDecodeAllocFree(t *testing.T) {
	data := binStream(t, 1024)
	enc := encode.NewEncoder("device", "version")
	rd := bytes.NewReader(data)
	d := NewBinaryRowReader(rd, binSchema, enc)
	b := &core.Batch{}
	decode := func() {
		rd.Reset(data)
		d.Reset(rd)
		b.Reset()
		for {
			if _, err := d.ReadInto(b, 4096); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if b.Len() != 1024 {
			t.Fatal("short decode")
		}
	}
	decode() // warm: intern attrs, grow scratch and slabs
	allocs := testing.AllocsPerRun(50, decode)
	if allocs != 0 {
		t.Fatalf("steady-state binary decode: %v allocs per 1024-row batch, want 0", allocs)
	}
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

// TestBinaryRowReaderKeepsOnlyItsWindow: a 1 MB row grows the window
// for that row only; the rows after it decode, and once the stream ends,
// and after a Reset, the reader holds its default window and block
// scratch, not the row. A pooled reader used to keep its largest row's
// buffer for the session's lifetime.
func TestBinaryRowReaderKeepsOnlyItsWindow(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryRowWriter(&buf)
	for i, v := range []string{"a", strings.Repeat("x", 1<<20), "b"} {
		if err := w.WriteRow([]float64{float64(i), 0}, []string{"d", v}, 0); err != nil {
			t.Fatal(err)
		}
	}
	enc := encode.NewEncoder("device", "version")
	d := NewBinaryRowReader(bytes.NewReader(buf.Bytes()), binSchema, enc)
	b := &core.Batch{}
	if n, err := d.ReadInto(b, 10); n != 3 || err != io.EOF {
		t.Fatalf("decoded (%d, %v), want (3, EOF)", n, err)
	}
	if got := enc.Decode(b.Points()[1].Attrs[1]).Value; len(got) != 1<<20 {
		t.Fatalf("the long row's value has %d bytes, want %d", len(got), 1<<20)
	}
	check := func(when string) {
		t.Helper()
		if cap(d.buf) != binaryWindow || &d.buf[0] != &d.win[0] {
			t.Fatalf("%s the window holds %d bytes, want the default %d", when, cap(d.buf), binaryWindow)
		}
		for i, v := range d.vals {
			if v != nil {
				t.Fatalf("%s value slot %d still holds %d bytes of the stream", when, i, len(v))
			}
		}
	}
	check("at the end of the stream")
	d.Reset(bytes.NewReader(nil))
	check("after Reset")
}

// TestBinaryRowDeclaredLengthAllocatesWhatArrives: a row that declares
// the largest length the format allows and then ends makes the reader
// allocate about what arrived, not the length it declared. A hostile
// push body of a dozen bytes used to cost a 16 MB buffer.
func TestBinaryRowDeclaredLengthAllocatesWhatArrives(t *testing.T) {
	frame := binary.AppendUvarint([]byte(BinaryMagic), maxBinaryRowBytes)
	frame = append(frame, 0, 1, 2, 3)
	d := NewBinaryRowReader(bytes.NewReader(frame), binSchema, encode.NewEncoder("device", "version"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := d.ReadInto(&core.Batch{}, 10)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated body") {
		t.Fatalf("read error %v, want a truncated body", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*binaryWindow {
		t.Fatalf("a %d-byte stream declaring a %d-byte row allocated %d bytes, want at most %d", len(frame), maxBinaryRowBytes, got, 4*binaryWindow)
	}
}
