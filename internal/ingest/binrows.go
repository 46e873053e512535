package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// Binary row format ("MBR1"): the compact push wire format for
// high-rate producers that want to skip JSON entirely. A stream is the
// 4-byte magic "MBR1" followed by length-prefixed rows until EOF; all
// integers are unsigned varints, all floats are IEEE-754 little-endian:
//
//	stream = "MBR1" row*
//	row    = uvarint bodyLen , body            (bodyLen = len(body))
//	body   = flags:byte                        (bit 0: row carries a time)
//	         [ time:float64le        ]         (iff flags&1)
//	         uvarint nMetrics , nMetrics * float64le
//	         uvarint nAttrs   , nAttrs * ( uvarint len , len bytes )
//
// Attribute values are raw UTF-8 bytes in the session's configured
// attribute-column order; nMetrics/nAttrs must match the schema (the
// redundancy buys per-row validation errors on par with the NDJSON
// path). The length prefix makes framing errors detectable — a body
// that decodes short or long fails the row rather than silently
// desynchronizing the stream. A zero-byte stream decodes as zero rows
// (an empty flush or eof-only request is legal); a partial or wrong
// magic is an error.
//
// BinaryRowReader decodes a stream into recycled core.Batch slabs with
// zero steady-state allocations: the varint/float parsing works out of
// a reusable body buffer and a row's attribute values are interned
// together through encode.Encoder.EncodeBytesInto, which looks up
// already-known values under one read lock without materializing a
// string. A row that fails partway through its attributes still interns
// the ones before the failure, in column order, so an encoder that
// outlives the bad row hands out the ids it would have had they been
// interned one at a time.

// BinaryMagic is the stream header of the binary row format.
const BinaryMagic = "MBR1"

// BinaryContentType is the Content-Type under which mbserver accepts
// the binary row format on POST /stream/{id}/push.
const BinaryContentType = "application/x-macrobase-rows"

// maxBinaryRowBytes bounds a single row's declared body length so a
// corrupt or hostile length prefix cannot force a giant allocation.
const maxBinaryRowBytes = 1 << 24

// binFlagTime marks a row carrying an event time.
const binFlagTime = 1

// BinaryRowWriter encodes rows in the binary push format. It writes
// the magic before the first row. Not safe for concurrent use.
type BinaryRowWriter struct {
	w     io.Writer
	buf   []byte
	begun bool
}

// NewBinaryRowWriter returns a writer emitting to w.
func NewBinaryRowWriter(w io.Writer) *BinaryRowWriter {
	return &BinaryRowWriter{w: w}
}

// WriteRow encodes one row: metrics in schema order, attribute values
// in schema column order, and an event time (time != 0 sets the time
// flag; a genuine zero time may be forced with WriteRowTimed).
func (w *BinaryRowWriter) WriteRow(metrics []float64, attrs []string, time float64) error {
	return w.writeRow(metrics, attrs, time, time != 0)
}

// WriteRowTimed is WriteRow with an explicit has-time flag, for
// streams where a zero event time is meaningful.
func (w *BinaryRowWriter) WriteRowTimed(metrics []float64, attrs []string, time float64, hasTime bool) error {
	return w.writeRow(metrics, attrs, time, hasTime)
}

func (w *BinaryRowWriter) writeRow(metrics []float64, attrs []string, time float64, hasTime bool) error {
	w.buf = w.buf[:0]
	if !w.begun {
		w.buf = append(w.buf, BinaryMagic...)
		w.begun = true
	}
	// Body assembled after a placeholder gap so the length prefix can
	// be sized exactly: build the body at the tail, then splice.
	bodyStart := len(w.buf)
	b := w.buf
	flags := byte(0)
	if hasTime {
		flags |= binFlagTime
	}
	b = append(b, flags)
	if hasTime {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(time))
	}
	b = binary.AppendUvarint(b, uint64(len(metrics)))
	for _, m := range metrics {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m))
	}
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = binary.AppendUvarint(b, uint64(len(a)))
		b = append(b, a...)
	}
	w.buf = b
	bodyLen := len(w.buf) - bodyStart
	var pfx [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pfx[:], uint64(bodyLen))
	if _, err := w.w.Write(w.buf[:bodyStart]); err != nil {
		return err
	}
	if _, err := w.w.Write(pfx[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(w.buf[bodyStart:])
	return err
}

// TornFrames truncates an encoded MBR1 byte stream at a seeded point
// strictly inside a frame, simulating a connection cut mid-write — the
// torn-frame input the binary push decoder must reject cleanly (an
// error, never a panic, and never silently accepted rows past the
// tear).
func TornFrames(frames []byte, seed uint64) []byte {
	if len(frames) <= 5 {
		return frames
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	cut := 5 + rng.IntN(len(frames)-5) // keep the magic, tear inside a frame
	return frames[:cut]
}

// BinaryRowReader decodes a binary row stream into core.Batch slabs,
// validating each row against the schema and interning attribute
// values through the encoder. Reuse one reader across streams via
// Reset; steady-state decoding allocates nothing.
type BinaryRowReader struct {
	r      *bufio.Reader
	schema Schema
	enc    *encode.Encoder
	body   []byte
	mbuf   []float64
	abuf   []int32
	vals   [][]byte // a row's attribute values, aliasing body until interned
	row    int
	begun  bool
	err    error
}

// NewBinaryRowReader returns a reader decoding r under schema, with
// attribute values interned through enc.
func NewBinaryRowReader(r io.Reader, schema Schema, enc *encode.Encoder) *BinaryRowReader {
	d := &BinaryRowReader{schema: schema, enc: enc}
	d.Reset(r)
	return d
}

// Reset rearms the reader over a new stream, keeping its buffers (the
// pooling hook for per-request reuse).
func (d *BinaryRowReader) Reset(r io.Reader) {
	if d.r == nil {
		d.r = bufio.NewReader(r)
	} else {
		d.r.Reset(r)
	}
	d.row = 0
	d.begun = false
	d.err = nil
}

// ReadInto appends up to max decoded rows to b and reports how many
// were appended. A clean end of stream returns (n, io.EOF) with n
// possibly positive; any malformed input fails the whole read (errors
// are latched: subsequent calls return the same error).
func (d *BinaryRowReader) ReadInto(b *core.Batch, max int) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if !d.begun {
		if err := d.readMagic(); err != nil {
			d.err = err
			return 0, err
		}
		d.begun = true
	}
	if cap(d.mbuf) < len(d.schema.Metrics) {
		d.mbuf = make([]float64, len(d.schema.Metrics))
	}
	if cap(d.abuf) < len(d.schema.Attributes) {
		d.abuf = make([]int32, len(d.schema.Attributes))
	}
	if cap(d.vals) < len(d.schema.Attributes) {
		d.vals = make([][]byte, len(d.schema.Attributes))
	}
	n := 0
	for n < max {
		if err := d.readRow(b); err == io.EOF {
			return n, io.EOF
		} else if err != nil {
			d.err = err
			return n, err
		}
		n++
	}
	return n, nil
}

// readMagic consumes and validates the 4-byte stream header (into the
// reusable body scratch: a stack array would escape through io.Reader
// and cost one allocation per stream). A completely empty stream —
// zero bytes before any magic — returns io.EOF and decodes as zero
// rows, mirroring an empty NDJSON body (an empty ?eof=1 request must
// not fail); a partial header is still an error.
func (d *BinaryRowReader) readMagic() error {
	if cap(d.body) < len(BinaryMagic) {
		d.body = make([]byte, 64)
	}
	m := d.body[:len(BinaryMagic)]
	if _, err := io.ReadFull(d.r, m); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("ingest: binary rows: missing %q magic: %w", BinaryMagic, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("ingest: binary rows: reading magic: %w", err)
	}
	if string(m) != BinaryMagic {
		return fmt.Errorf("ingest: binary rows: bad magic %q, want %q", m, BinaryMagic)
	}
	return nil
}

// readRow decodes one length-prefixed row into b. io.EOF (only at a
// row boundary) means the stream ended cleanly.
func (d *BinaryRowReader) readRow(b *core.Batch) error {
	bodyLen, err := binary.ReadUvarint(d.r)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("ingest: binary row %d: length prefix: %w", d.row+1, err)
	}
	d.row++
	if bodyLen > maxBinaryRowBytes {
		return fmt.Errorf("ingest: binary row %d: declared length %d exceeds limit %d", d.row, bodyLen, maxBinaryRowBytes)
	}
	if cap(d.body) < int(bodyLen) {
		d.body = make([]byte, bodyLen)
	}
	body := d.body[:bodyLen]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return fmt.Errorf("ingest: binary row %d: truncated body (%d bytes declared): %w", d.row, bodyLen, err)
	}
	if len(body) < 1 {
		return fmt.Errorf("ingest: binary row %d: empty body", d.row)
	}
	flags := body[0]
	body = body[1:]
	t := 0.0
	if flags&binFlagTime != 0 {
		if len(body) < 8 {
			return fmt.Errorf("ingest: binary row %d: truncated time", d.row)
		}
		t = math.Float64frombits(binary.LittleEndian.Uint64(body))
		if err := checkFinite(t); err != nil {
			return fmt.Errorf("ingest: binary row %d: time: %w", d.row, err)
		}
		body = body[8:]
	}
	nm, body, err := d.uvarint(body)
	if err != nil {
		return fmt.Errorf("ingest: binary row %d: metric count: %w", d.row, err)
	}
	if int(nm) != len(d.schema.Metrics) {
		return fmt.Errorf("ingest: binary row %d: %d metrics, want %d (%v)", d.row, nm, len(d.schema.Metrics), d.schema.Metrics)
	}
	mbuf := d.mbuf[:nm]
	if len(body) < 8*int(nm) {
		return fmt.Errorf("ingest: binary row %d: truncated metrics", d.row)
	}
	for j := range mbuf {
		mbuf[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
		if err := checkFinite(mbuf[j]); err != nil {
			return fmt.Errorf("ingest: binary row %d: metric %q: %w", d.row, d.schema.Metrics[j], err)
		}
	}
	body = body[8*nm:]
	na, body, err := d.uvarint(body)
	if err != nil {
		return fmt.Errorf("ingest: binary row %d: attribute count: %w", d.row, err)
	}
	if int(na) != len(d.schema.Attributes) {
		return fmt.Errorf("ingest: binary row %d: %d attributes, want %d (%v)", d.row, na, len(d.schema.Attributes), d.schema.Attributes)
	}
	abuf, vals := d.abuf[:na], d.vals[:na]
	for j := range vals {
		var vl uint64
		vl, body, err = d.uvarint(body)
		if err != nil {
			d.enc.EncodeBytesInto(abuf[:j], vals[:j])
			return fmt.Errorf("ingest: binary row %d: attribute %q length: %w", d.row, d.schema.Attributes[j], err)
		}
		if uint64(len(body)) < vl {
			d.enc.EncodeBytesInto(abuf[:j], vals[:j])
			return fmt.Errorf("ingest: binary row %d: truncated attribute %q", d.row, d.schema.Attributes[j])
		}
		vals[j] = body[:vl]
		body = body[vl:]
	}
	d.enc.EncodeBytesInto(abuf, vals)
	if len(body) != 0 {
		return fmt.Errorf("ingest: binary row %d: %d trailing bytes in body", d.row, len(body))
	}
	b.Append(mbuf, abuf, t)
	return nil
}

// uvarint decodes a varint from the row body without touching the
// underlying reader.
func (d *BinaryRowReader) uvarint(body []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, body, fmt.Errorf("truncated or malformed varint")
	}
	return v, body[n:], nil
}
