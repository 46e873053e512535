package ingest

import (
	"encoding/binary"
	"errors"
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
// zero steady-state allocations. It parses each row in place from a
// fixed window (binaryWindow, 64 KB) that large reads of the stream
// refill, so a row costs the bytes it parses, not a call per byte of
// its length prefix and a copy of its body. Attribute values alias the
// window until a block of rows — at most internRows, and never past a
// refill — is interned in one encode.Encoder.EncodeRows call: one read
// lock for the block's lookups, one write lock for its misses, in
// row-then-column order. A row that fails partway through its
// attributes still interns the ones before the failure, after the rows
// before it, so an encoder that outlives the bad row hands out the ids
// it would have had they been interned one at a time.

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
// flag).
func (w *BinaryRowWriter) WriteRow(metrics []float64, attrs []string, time float64) error {
	return w.writeRow(metrics, attrs, time, time != 0)
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

// binaryWindow is the size of the window a BinaryRowReader parses rows
// in. On the CMT push kernels (BenchmarkPushIngest/cmt-*, 2 vCPUs) 4 KB
// to 512 KB windows decode within noise of each other; what the reader
// saves is the per-row calls, not the reads. End to end on firehose_xs,
// a scratch prototype reading into a buffer that held the whole body
// gained +25% to +42% points/s, against +27% in the median for this
// window, but raised the server's peak RSS from 24-29 to 33.6-34.6 MB.
// At 64 KB a firehose_xs body (~430 KB) takes about seven refills and a
// pooled decoder stays small.
const binaryWindow = 64 << 10

// internRows bounds the rows one encoder call interns, and so one hold
// of the encoder's lock. On the CMT push kernels (2 vCPUs) bounds of 16
// to 1024 rows decode within noise of each other: one RLock/RUnlock pair
// is a fraction of a nanosecond a row past a few dozen rows. Interning
// is about half of a complex row's ~330 ns, so a hold of 256 six-value
// rows lasts ~45 us, which bounds what a writer on the same encoder, and
// the readers queued behind it, wait.
const internRows = 256

// errVarintOverflow is binary.ReadUvarint's error for a length prefix of
// more than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// BinaryRowReader decodes a binary row stream into core.Batch slabs,
// validating each row against the schema and interning attribute
// values through the encoder. Reuse one reader across streams via
// Reset; steady-state decoding allocates nothing.
//
// Rows are parsed in place from a fixed window that large reads of the
// stream refill; a row longer than the window grows it for that row
// only, and the end of the stream drops back to the default window, so
// a pooled reader keeps no more than binaryWindow between streams.
// Parsed rows wait in a block, their attribute values aliasing the
// window, until the block holds internRows rows, the window must
// refill, the read reaches its max or a row fails; the block is then
// interned in one encode.Encoder.EncodeRows call and appended to the
// batch.
type BinaryRowReader struct {
	src    io.Reader
	schema Schema
	enc    *encode.Encoder
	win    []byte // the default window, kept across streams
	buf    []byte // the window being parsed: win, or a row longer than win
	pos    int    // buf[pos:end] is read and not yet parsed
	end    int
	rerr   error // the source's error, met once buf[pos:end] is parsed
	// The block: rows parsed and not yet interned. vals holds the
	// attribute values of its rows, then extra values of a bad row that
	// failed after them, all aliasing buf.
	met   []float64
	times []float64
	vals  [][]byte
	ids   []int32
	rows  int
	extra int
	row   int
	begun bool
	err   error
}

// NewBinaryRowReader returns a reader decoding r under schema, with
// attribute values interned through enc.
func NewBinaryRowReader(r io.Reader, schema Schema, enc *encode.Encoder) *BinaryRowReader {
	return newBinaryRowReader(r, schema, enc, binaryWindow)
}

// newBinaryRowReader is NewBinaryRowReader with a window of size bytes;
// tests take tiny ones so that rows straddle refills and outgrow it.
func newBinaryRowReader(r io.Reader, schema Schema, enc *encode.Encoder, size int) *BinaryRowReader {
	nm, na := len(schema.Metrics), len(schema.Attributes)
	d := &BinaryRowReader{
		schema: schema,
		enc:    enc,
		win:    make([]byte, size),
		met:    make([]float64, internRows*nm),
		times:  make([]float64, internRows),
		vals:   make([][]byte, internRows*na),
		ids:    make([]int32, internRows*na),
	}
	d.Reset(r)
	return d
}

// Reset rearms the reader over a new stream, keeping its default window
// and block scratch (the pooling hook for per-request reuse).
func (d *BinaryRowReader) Reset(r io.Reader) {
	d.src = r
	d.buf, d.pos, d.end, d.rerr = d.win, 0, 0, nil
	d.row = 0
	d.begun = false
	d.err = nil
}

// ReadInto appends up to max decoded rows to b and reports how many
// were appended. A clean end of stream returns (n, io.EOF) with n
// possibly positive; any malformed input fails the whole read (errors
// are latched: subsequent calls return the same error). The rows before
// a bad row are appended, and the bad row's attribute values before its
// failure are interned.
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
	n := 0
	var err error
	for ; n < max; n++ {
		if d.rows == internRows {
			d.flush(b)
		}
		if err = d.readRow(b); err != nil {
			break
		}
	}
	d.flush(b)
	if err != nil {
		// The stream is over: let go of a window grown for a long row
		// now, not at the next Reset, which may be far off in a pool.
		d.buf, d.pos, d.end = d.win, 0, 0
		if err != io.EOF {
			d.err = err
		}
	}
	return n, err
}

// readMagic consumes and validates the 4-byte stream header. A
// completely empty stream — zero bytes before any magic — returns
// io.EOF and decodes as zero rows, mirroring an empty NDJSON body (an
// empty ?eof=1 request must not fail); a partial header is still an
// error.
func (d *BinaryRowReader) readMagic() error {
	if err := d.need(nil, len(BinaryMagic)); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("ingest: binary rows: missing %q magic: %w", BinaryMagic, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("ingest: binary rows: reading magic: %w", err)
	}
	m := d.buf[d.pos : d.pos+len(BinaryMagic)]
	if string(m) != BinaryMagic {
		return fmt.Errorf("ingest: binary rows: bad magic %q, want %q", m, BinaryMagic)
	}
	d.pos += len(BinaryMagic)
	return nil
}

// need makes sure buf[pos:end] holds at least n bytes, refilling the
// window until it does or the source ends. It returns nil once they are
// there, and otherwise io.ReadFull's error for them: io.EOF with none
// read, io.ErrUnexpectedEOF with some, or the source's own error. A
// refill first interns the block into b, as its values alias the
// window; b may be nil while the block is empty.
func (d *BinaryRowReader) need(b *core.Batch, n int) error {
	for d.end-d.pos < n {
		if d.rerr != nil {
			if d.rerr == io.EOF && d.end > d.pos {
				return io.ErrUnexpectedEOF
			}
			return d.rerr
		}
		d.fill(b, n)
	}
	return nil
}

// fill moves the unparsed bytes to the front of the window and reads
// once into the rest of it. The window is the default one unless want
// is larger; then it doubles, up to want, each time the row's bytes
// fill it, so a length prefix alone makes the reader allocate no more
// than twice what the stream sends.
func (d *BinaryRowReader) fill(b *core.Batch, want int) {
	d.flush(b)
	rest := d.buf[d.pos:d.end]
	dst := d.win
	if want > len(dst) {
		dst = d.buf
		if len(rest) == len(dst) || &dst[0] == &d.win[0] {
			dst = make([]byte, min(want, 2*len(dst)))
		}
	}
	d.end = copy(dst, rest)
	d.buf, d.pos = dst, 0
	// A source that returns neither bytes nor an error is retried, as
	// bufio.Reader retries it, before it counts as stuck.
	for i := 0; i < 100; i++ {
		n, err := d.src.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
			return
		}
		if n > 0 {
			return
		}
	}
	d.rerr = io.ErrNoProgress
}

// prefix reads a row's length prefix as binary.ReadUvarint reads it
// from the stream: io.EOF before its first byte, io.ErrUnexpectedEOF
// after it, and errVarintOverflow past ten bytes or 64 bits.
func (d *BinaryRowReader) prefix(b *core.Batch) (uint64, error) {
	for {
		v, n := binary.Uvarint(d.buf[d.pos:d.end])
		if n > 0 {
			d.pos += n
			return v, nil
		}
		if n < 0 || d.end-d.pos >= binary.MaxVarintLen64 {
			return 0, errVarintOverflow
		}
		if err := d.need(b, d.end-d.pos+1); err != nil {
			return 0, err
		}
	}
}

// readRow parses one length-prefixed row into the block. io.EOF (only
// at a row boundary) means the stream ended cleanly.
func (d *BinaryRowReader) readRow(b *core.Batch) error {
	bodyLen, err := d.prefix(b)
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
	if err := d.need(b, int(bodyLen)); err != nil {
		return fmt.Errorf("ingest: binary row %d: truncated body (%d bytes declared): %w", d.row, bodyLen, err)
	}
	body := d.buf[d.pos : d.pos+int(bodyLen)]
	d.pos += int(bodyLen)
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
	nm, body, err := uvarint(body)
	if err != nil {
		return fmt.Errorf("ingest: binary row %d: metric count: %w", d.row, err)
	}
	if nm != uint64(len(d.schema.Metrics)) {
		return fmt.Errorf("ingest: binary row %d: %d metrics, want %d (%v)", d.row, nm, len(d.schema.Metrics), d.schema.Metrics)
	}
	if len(body) < 8*int(nm) {
		return fmt.Errorf("ingest: binary row %d: truncated metrics", d.row)
	}
	met := d.met[d.rows*int(nm) : (d.rows+1)*int(nm)]
	for j := range met {
		met[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
		if err := checkFinite(met[j]); err != nil {
			return fmt.Errorf("ingest: binary row %d: metric %q: %w", d.row, d.schema.Metrics[j], err)
		}
	}
	body = body[8*nm:]
	na, body, err := uvarint(body)
	if err != nil {
		return fmt.Errorf("ingest: binary row %d: attribute count: %w", d.row, err)
	}
	if na != uint64(len(d.schema.Attributes)) {
		return fmt.Errorf("ingest: binary row %d: %d attributes, want %d (%v)", d.row, na, len(d.schema.Attributes), d.schema.Attributes)
	}
	vals := d.vals[d.rows*int(na) : (d.rows+1)*int(na)]
	for j := range vals {
		var vl uint64
		vl, body, err = uvarint(body)
		if err != nil {
			d.extra = j
			return fmt.Errorf("ingest: binary row %d: attribute %q length: %w", d.row, d.schema.Attributes[j], err)
		}
		if uint64(len(body)) < vl {
			d.extra = j
			return fmt.Errorf("ingest: binary row %d: truncated attribute %q", d.row, d.schema.Attributes[j])
		}
		vals[j] = body[:vl]
		body = body[vl:]
	}
	if len(body) != 0 {
		d.extra = len(vals)
		return fmt.Errorf("ingest: binary row %d: %d trailing bytes in body", d.row, len(body))
	}
	d.times[d.rows] = t
	d.rows++
	return nil
}

// flush interns the block's values, a bad row's among them, in one
// encoder call and appends the block's rows to b.
func (d *BinaryRowReader) flush(b *core.Batch) {
	nm, na := len(d.schema.Metrics), len(d.schema.Attributes)
	if nv := d.rows*na + d.extra; nv > 0 {
		d.enc.EncodeRows(d.ids[:nv], d.vals[:nv], na)
		clear(d.vals[:nv]) // let go of a window grown for a long row
	}
	for r := 0; r < d.rows; r++ {
		b.Append(d.met[r*nm:(r+1)*nm], d.ids[r*na:(r+1)*na], d.times[r])
	}
	d.rows, d.extra = 0, 0
}

// uvarint decodes a varint from a row body.
func uvarint(body []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, body, fmt.Errorf("truncated or malformed varint")
	}
	return v, body[n:], nil
}
