package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// oracleRowReader is the MBR1 reader BinaryRowReader replaced, kept as
// the oracle of its differential tests: it reads each length prefix a
// byte at a time from a bufio.Reader, copies each body into a buffer of
// its own and interns a row's attribute values one at a time, in column
// order, before the next row is read.
type oracleRowReader struct {
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

// newOracleRowReader returns a reader decoding r under schema, with
// attribute values interned through enc.
func newOracleRowReader(r io.Reader, schema Schema, enc *encode.Encoder) *oracleRowReader {
	d := &oracleRowReader{schema: schema, enc: enc}
	d.Reset(r)
	return d
}

// Reset rearms the reader over a new stream, keeping its buffers (the
// pooling hook for per-request reuse).
func (d *oracleRowReader) Reset(r io.Reader) {
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
func (d *oracleRowReader) ReadInto(b *core.Batch, max int) (int, error) {
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
func (d *oracleRowReader) readMagic() error {
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
func (d *oracleRowReader) readRow(b *core.Batch) error {
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
			d.internEach(abuf[:j], vals[:j])
			return fmt.Errorf("ingest: binary row %d: attribute %q length: %w", d.row, d.schema.Attributes[j], err)
		}
		if uint64(len(body)) < vl {
			d.internEach(abuf[:j], vals[:j])
			return fmt.Errorf("ingest: binary row %d: truncated attribute %q", d.row, d.schema.Attributes[j])
		}
		vals[j] = body[:vl]
		body = body[vl:]
	}
	d.internEach(abuf, vals)
	if len(body) != 0 {
		return fmt.Errorf("ingest: binary row %d: %d trailing bytes in body", d.row, len(body))
	}
	b.Append(mbuf, abuf, t)
	return nil
}

// internEach interns a row's values one at a time, in column order.
func (d *oracleRowReader) internEach(ids []int32, vals [][]byte) {
	for j, v := range vals {
		ids[j] = d.enc.Encode(j, string(v))
	}
}

// uvarint decodes a varint from the row body without touching the
// underlying reader.
func (d *oracleRowReader) uvarint(body []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, body, fmt.Errorf("truncated or malformed varint")
	}
	return v, body[n:], nil
}
