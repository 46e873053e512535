// Package ingest implements MacroBase's ingestion operators (paper
// §3.2 stage 1): a CSV source that projects configured metric and
// attribute columns into core.Point values (encoding attributes
// through an encode.Encoder), plus the JSON query configuration used
// by the command-line tools.
package ingest

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// Schema selects which CSV columns become metrics, attributes, and the
// optional event time.
type Schema struct {
	// Metrics are the column names parsed as float64 metrics, in
	// order.
	Metrics []string
	// Attributes are the column names treated as categorical
	// attributes, in order.
	Attributes []string
	// TimeColumn, when non-empty, is parsed as the event time in
	// seconds.
	TimeColumn string
}

// blockSize is the size of the blocks a CSVSource cuts its input into:
// large enough that handing one to a worker costs nothing next to
// parsing it, small enough that two per worker in flight stay a few MB.
const blockSize = 256 << 10

// CSVSource streams core.Point values from RFC 4180 CSV data with a
// header row, as encoding/csv reads it: empty lines are skipped, \r\n
// inside and at the end of a line reads as \n, and every record must
// have the header's number of fields. It reads the input in blocks of whole
// records and splits fields over the block's bytes, so a row costs no
// allocation: an unquoted field is a subslice of the block, a quoted
// one is unescaped in place, metrics are parsed from the field bytes
// and attributes interned with encode.Encoder.EncodeRows, the intern
// call the MBR1 reader makes too.
//
// Every read goes through one record loop, columns.parse, which turns a
// block into slabs of metrics, times and attribute spans; the calling
// goroutine then interns the block's attributes in file order (intern),
// internRows rows an encoder call, so one hold of the encoder's lock
// covers at most internRows rows, and ids and bad-row errors do not
// depend on the read. NextBatchInto, the streaming read, parses a block
// at a time on the calling goroutine, in slabs it recycles, and copies
// rows from them into the engine's batch: the source is a one-partition
// core.PartitionedSource.
// ReadAll, the one-shot read, parses blocks on GOMAXPROCS goroutines
// and keeps their slabs as the points. Next, NextBatchInto into fresh
// points, stays because the benchmark harness's staged replay
// (bench/replay.go) reads a file through it.
type CSVSource struct {
	br    blockReader
	enc   *encode.Encoder
	cols  columns
	first []byte   // the header's block past the header: the first block to parse
	cur   block    // the streaming read's block
	next  int      // cur's rows already read
	bad   error    // the error of cur's bad row, which follows its rows
	vals  [][]byte // the attribute values of internRows rows, for interning
	row   int      // records parsed, the header not counted
	line  int      // newlines parsed: the next block starts on line+1
	err   error
}

// columns is where a schema's columns sit among a record's fields.
type columns struct {
	fields  int // the header's field count, which every record must have
	met     []int
	attr    []int
	time    int // -1 without a time column
	metrics []string
}

// NewCSVSource prepares a source reading from r. The first record must
// be a header naming every schema column. enc may be shared across
// sources; attribute columns are registered in schema order.
func NewCSVSource(r io.Reader, schema Schema, enc *encode.Encoder) (*CSVSource, error) {
	return newCSVSource(r, schema, enc, blockSize)
}

// newCSVSource is NewCSVSource cutting blocks of size bytes; tests cut
// tiny ones so that records straddle the cuts.
func newCSVSource(r io.Reader, schema Schema, enc *encode.Encoder, size int) (*CSVSource, error) {
	s := &CSVSource{br: blockReader{r: r, size: size}, enc: enc}
	var data []byte
	pos := 0
	for {
		var skipped int
		pos, skipped = skipEmpty(data, pos)
		s.line += skipped
		if pos < len(data) {
			break
		}
		var err error
		if data, err = s.br.next(data); err != nil {
			return nil, fmt.Errorf("ingest: reading header: %w", err)
		}
		pos = 0
	}
	fields, next, lines, err := splitRecord(data, pos, bytes.IndexByte(data, '"') >= 0, -1, nil)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading header: %w", err)
	}
	s.first, s.line = data[next:], s.line+lines
	header := make([]string, len(fields))
	byName := make(map[string]int, len(header))
	for i, f := range fields {
		header[i] = string(data[f.lo:f.hi])
		byName[header[i]] = i
	}
	s.cols = columns{
		fields:  len(header),
		met:     make([]int, 0, len(schema.Metrics)),
		attr:    make([]int, 0, len(schema.Attributes)),
		time:    -1,
		metrics: schema.Metrics,
	}
	for _, m := range schema.Metrics {
		i, ok := byName[m]
		if !ok {
			return nil, fmt.Errorf("ingest: metric column %q not in header %v", m, header)
		}
		s.cols.met = append(s.cols.met, i)
	}
	for _, a := range schema.Attributes {
		i, ok := byName[a]
		if !ok {
			return nil, fmt.Errorf("ingest: attribute column %q not in header %v", a, header)
		}
		s.cols.attr = append(s.cols.attr, i)
	}
	if schema.TimeColumn != "" {
		i, ok := byName[schema.TimeColumn]
		if !ok {
			return nil, fmt.Errorf("ingest: time column %q not in header %v", schema.TimeColumn, header)
		}
		s.cols.time = i
	}
	s.vals = make([][]byte, internRows*len(s.cols.attr))
	return s, nil
}

// Encoder returns the encoder used for attribute values.
func (s *CSVSource) Encoder() *encode.Encoder { return s.enc }

// ErrBadRow matches (errors.Is) an error caused by one malformed input
// row: a CSV record that does not split into the header's fields, or a
// metric or time that does not parse or is NaN or infinite. Such a
// failure is the input's, not the engine's. The error's own text names
// the row and the line it starts on.
var ErrBadRow = errors.New("ingest: bad row")

// badRow is a malformed row's error: its row (the header not counted),
// the file line the row starts on (the header is line 1), and the
// cause, which for a record that does not split is encoding/csv's
// ErrBareQuote, ErrQuote or ErrFieldCount.
type badRow struct {
	row, line int
	err       error
}

func (e *badRow) Error() string {
	return fmt.Sprintf("ingest: row %d (line %d): %v", e.row, e.line, e.err)
}
func (e *badRow) Unwrap() error      { return e.err }
func (*badRow) Is(target error) bool { return target == ErrBadRow }

// errNonFinite rejects a NaN or ±Inf metric or time. One such metric
// value poisons the model fit and the percentile cutoff for every
// point: a single NaN row used to leave a query with no outliers.
var errNonFinite = errors.New("NaN or infinite value")

// checkFinite returns errNonFinite for NaN and ±Inf.
func checkFinite(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return errNonFinite
	}
	return nil
}

// nums parses a split record's metrics into met and returns its time.
func (c *columns) nums(data []byte, f []span, met []float64) (float64, error) {
	for j, i := range c.met {
		v, err := parseFloat(data[f[i].lo:f[i].hi])
		if err != nil {
			return 0, fmt.Errorf("metric %q: %w", c.metrics[j], err)
		}
		met[j] = v
	}
	if c.time < 0 {
		return 0, nil
	}
	t, err := parseFloat(data[f[c.time].lo:f[c.time].hi])
	if err != nil {
		return 0, fmt.Errorf("time: %w", err)
	}
	return t, nil
}

// cut puts the next block of records in b.data: first what the header's
// block holds past the header, then the blockReader's blocks. It
// returns io.EOF past the input's end and the input's error for a
// failed read.
func (s *CSVSource) cut(b *block) (err error) {
	if len(s.first) > 0 {
		b.data, s.first = s.first, nil
		return nil
	}
	b.data, err = s.br.next(b.data)
	return err
}

// intern interns the attributes of b's parsed rows in file order, into
// b.ids, internRows rows an encoder call, and counts b's rows and lines.
// It returns the error of b's bad row, if b has one, naming its row and
// line.
func (s *CSVSource) intern(b *block) error {
	na := len(s.cols.attr)
	for r := 0; r < b.rows && na > 0; r += internRows {
		vals := s.vals[:(min(r+internRows, b.rows)-r)*na]
		for i, f := range b.attrs[r*na : r*na+len(vals)] {
			vals[i] = b.data[f.lo:f.hi]
		}
		s.enc.EncodeRows(b.ids[r*na:r*na+len(vals)], vals, na)
	}
	s.row += b.rows
	if b.bad != nil {
		return &badRow{s.row + 1, s.line + b.lines + 1, b.bad}
	}
	s.line += b.lines
	return nil
}

// Next returns up to max freshly allocated points, or
// core.ErrEndOfStream when no rows remain: NextBatchInto into a new
// batch's slabs. Rows with unparsable or non-finite metrics are
// reported as errors, not skipped: silent data loss hides exactly the
// anomalies MacroBase exists to find.
func (s *CSVSource) Next(max int) ([]core.Point, error) {
	b, err := s.NextBatchInto(context.Background(), &core.Batch{}, max)
	if err != nil {
		return nil, err
	}
	return b.Points(), nil
}

// Partitions implements core.PartitionedSource: the source is its own
// one partition.
func (s *CSVSource) Partitions() []core.PartitionStream { return []core.PartitionStream{s} }

// NextBatchInto implements core.PartitionStream: it copies up to max
// rows into dst's recycled slabs and returns dst. When the current
// block's rows are all read, it cuts, parses and interns the next one
// into slabs the source recycles. Once the encoder knows a block's
// attribute values, a row allocates nothing. Returns
// core.ErrEndOfStream when no rows remain. A bad row's error is returned
// by the read whose max rows reach it, and latched: every later read
// returns it. The context is checked once per call: a read is bounded
// by max rows and one block.
func (s *CSVSource) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := &s.cur
	nm, na := len(s.cols.met), len(s.cols.attr)
	n := 0
	for s.err == nil && n < max {
		if s.next < b.rows {
			p := b.point(s.next, nm, na)
			dst.Append(p.Metrics, p.Attrs, p.Time)
			s.next++
			n++
			continue
		}
		if s.bad != nil {
			s.err = s.bad
			break
		}
		if err := s.cut(b); err == io.EOF {
			break
		} else if err != nil {
			s.err = fmt.Errorf("ingest: %w", err)
			break
		}
		s.cols.parse(b)
		s.bad, s.next = s.intern(b), 0
	}
	if s.err != nil {
		return nil, s.err
	}
	if n == 0 {
		return nil, core.ErrEndOfStream
	}
	return dst, nil
}

// ReadAll reads every remaining row into fresh points: the one-shot
// read. It starts with the rows left in the streaming read's block.
// Then up to GOMAXPROCS goroutines parse blocks while the caller cuts
// the blocks and takes them back in file order to intern their
// attributes, so the points and every encoder id are those a streaming
// read gives, and so is the error of the first bad row in file order,
// which is latched as NextBatchInto latches it.
func (s *CSVSource) ReadAll() ([]core.Point, error) {
	return s.readAll(runtime.GOMAXPROCS(0))
}

// parsed is what a block's parse leaves for the point views: slabs,
// one row after another.
type parsed struct {
	rows  int
	met   []float64
	ids   []int32
	times []float64 // nil without a time column
}

// point is row i of p, a view of p's slabs.
func (p *parsed) point(i, nm, na int) core.Point {
	pt := core.Point{
		Metrics: p.met[i*nm : (i+1)*nm : (i+1)*nm],
		Attrs:   p.ids[i*na : (i+1)*na : (i+1)*na],
	}
	if p.times != nil {
		pt.Time = p.times[i]
	}
	return pt
}

// block is one cut of the input on its way through a read.
type block struct {
	data []byte // recycled across cuts
	parsed
	lines  int           // newlines in data, or before the bad row when bad is set
	bad    error         // the cause of the first bad row, which is row rows+1
	attrs  []span        // each row's attribute fields, in schema order
	fields []span        // the parse's scratch
	done   chan struct{} // readAll's parse is over; buffered, so the parser never waits
}

// readAll is ReadAll on workers parsing goroutines.
func (s *CSVSource) readAll(workers int) ([]core.Point, error) {
	if s.err != nil {
		return nil, s.err
	}
	// The streaming read's block leads; its slabs become points, so the
	// streaming read gives them up.
	kept, skip, err := []parsed{s.cur.parsed}, s.next, s.bad
	s.cur.parsed, s.next = parsed{}, 0
	if err == nil {
		kept, err = s.readBlocks(workers, kept)
	}
	if err != nil {
		s.err = err
		return nil, err
	}

	nm, na := len(s.cols.met), len(s.cols.attr)
	total := -skip
	for _, p := range kept {
		total += p.rows
	}
	pts := make([]core.Point, 0, total)
	for _, p := range kept {
		for i := skip; i < p.rows; i++ {
			pts = append(pts, p.point(i, nm, na))
		}
		skip = 0
	}
	return pts, nil
}

// readBlocks parses every remaining block on workers goroutines,
// interns each in file order on the calling one and appends their
// slabs to kept.
func (s *CSVSource) readBlocks(workers int, kept []parsed) ([]parsed, error) {
	// Two blocks per worker keep every worker busy while the caller
	// interns and cuts; work holds every block in flight, so no send
	// blocks.
	inflight := 2 * workers
	work := make(chan *block, inflight)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for b := range work {
				s.cols.parse(b)
				b.done <- struct{}{}
				// Let the caller, woken by done, take the block back
				// and cut the next before this goroutine parses on.
				runtime.Gosched()
			}
		}()
	}

	var (
		flight       = make([]*block, 0, inflight) // cut and not yet taken back, in file order
		spare        = make([]*block, inflight)    // taken back, or never cut yet
		err, readErr error
	)
	blocks := make([]block, inflight)
	for i := range blocks {
		blocks[i].done = make(chan struct{}, 1)
		spare[i] = &blocks[i]
	}
	for {
		for readErr == nil && len(flight) < inflight {
			b := spare[len(spare)-1]
			spare = spare[:len(spare)-1]
			if readErr = s.cut(b); readErr != nil {
				break
			}
			flight = append(flight, b)
			work <- b
		}
		if len(flight) == 0 {
			break
		}
		b := flight[0]
		flight = append(flight[:0], flight[1:]...)
		<-b.done
		if err = s.intern(b); err != nil {
			break
		}
		kept = append(kept, b.parsed)
		b.parsed = parsed{}
		spare = append(spare, b)
	}
	close(work)
	wg.Wait()
	if err == nil && readErr != io.EOF {
		err = fmt.Errorf("ingest: %w", readErr)
	}
	return kept, err
}

// parse splits every record of b, parses its metrics and time into
// slabs sized from the block's line count, reusing b's when they are
// large enough, and notes where its attribute values are, for the
// caller to intern in file order. It stops at the first bad row. After
// the header, it is the one code that splits a record.
func (c *columns) parse(b *block) {
	data := b.data
	nm, na := len(c.met), len(c.attr)
	quotes := bytes.IndexByte(data, '"') >= 0
	// Every row but one the read stops at ends in a '\n'.
	most := bytes.Count(data, []byte{'\n'}) + 1
	b.met = resize(b.met, most*nm)
	b.ids = resize(b.ids, most*na)
	if c.time >= 0 {
		b.times = resize(b.times, most)
	}
	if cap(b.fields) < c.fields {
		b.fields = make([]span, 0, c.fields)
	}
	if cap(b.attrs) < most*na {
		b.attrs = make([]span, 0, most*na)
	}
	b.rows, b.lines, b.bad, b.attrs = 0, 0, nil, b.attrs[:0]
	pos := 0
	for {
		var skipped int
		pos, skipped = skipEmpty(data, pos)
		b.lines += skipped
		if pos == len(data) {
			break
		}
		f, next, lines, err := splitRecord(data, pos, quotes, c.fields, b.fields)
		b.fields = f
		if err != nil {
			b.bad = err
			break
		}
		r := b.rows
		t, err := c.nums(data, f, b.met[r*nm:(r+1)*nm])
		if err != nil {
			b.bad = err
			break
		}
		if b.times != nil {
			b.times[r] = t
		}
		for _, i := range c.attr {
			b.attrs = append(b.attrs, f[i])
		}
		b.rows++
		b.lines += lines
		pos = next
	}
	b.met, b.ids = b.met[:b.rows*nm], b.ids[:b.rows*na]
	if b.times != nil {
		b.times = b.times[:b.rows]
	}
}

// resize returns s with length n, in s's storage when it holds n; a nil
// s always gets fresh storage.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// blockReader cuts its input into blocks of whole records.
type blockReader struct {
	r    io.Reader
	size int
	tail []byte // read past the last cut: the start of the next block
	err  error  // the input's end (io.EOF) or failed read, once seen
}

// next returns the next block of whole records, in buf's storage when
// it is large enough. Every record in it ends in '\n': a last record
// with none gets one, which reads as encoding/csv reads a final line.
// At the input's end next returns io.EOF; a failed read returns the
// input's error once the whole records before it are delivered.
func (br *blockReader) next(buf []byte) ([]byte, error) {
	buf = append(buf[:0], br.tail...)
	want := br.size
	for {
		for br.err == nil && len(buf) < want {
			buf = slices.Grow(buf, want-len(buf))
			n, err := br.r.Read(buf[len(buf):cap(buf)])
			buf, br.err = buf[:len(buf)+n], err
		}
		if br.err == io.EOF {
			br.tail = br.tail[:0]
			if len(buf) == 0 {
				return nil, io.EOF
			}
			if buf[len(buf)-1] != '\n' {
				buf = append(buf, '\n')
			}
			return buf, nil
		}
		if cut := cutRecords(buf); cut > 0 {
			br.tail = append(br.tail[:0], buf[cut:]...)
			return buf[:cut], nil
		}
		if br.err != nil {
			br.tail = br.tail[:0]
			return nil, br.err
		}
		want = 2 * len(buf) // one record is longer than a block
	}
}

// cutRecords returns the offset past the last record boundary in b,
// which starts at one, or 0 when b holds none. A block without a '"'
// cuts at its last '\n'. Otherwise b is scanned as encoding/csv would
// split it, so that a newline inside a quoted field is no boundary;
// where that scan meets a quote the split rejects, all of b is one block,
// since the read stops at that row.
func cutRecords(b []byte) int {
	if bytes.IndexByte(b, '"') < 0 {
		return bytes.LastIndexByte(b, '\n') + 1
	}
	const (
		fieldStart = iota
		unquoted
		quoted
		quoteEnd // a quote has closed the field, or opens an escaped one
	)
	cut, st := 0, fieldStart
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch st {
		case fieldStart, unquoted:
			switch c {
			case '"':
				if st == unquoted {
					return len(b)
				}
				st = quoted
			case ',':
				st = fieldStart
			case '\n':
				st, cut = fieldStart, i+1
			default:
				st = unquoted
			}
		case quoted:
			j := bytes.IndexByte(b[i:], '"')
			if j < 0 {
				return cut
			}
			i, st = i+j, quoteEnd
		case quoteEnd:
			switch c {
			case '"':
				st = quoted
			case ',':
				st = fieldStart
			case '\n':
				st, cut = fieldStart, i+1
			case '\r':
				if i+1 == len(b) {
					return cut // a '\n' may follow
				}
				if b[i+1] != '\n' {
					return len(b)
				}
			default:
				return len(b)
			}
		}
	}
	return cut
}

// skipEmpty returns the offset past the empty lines at data[pos:],
// which encoding/csv skips, and how many it skipped.
func skipEmpty(data []byte, pos int) (int, int) {
	n := 0
	for pos < len(data) {
		switch {
		case data[pos] == '\n':
			pos++
		case data[pos] == '\r' && pos+1 < len(data) && data[pos+1] == '\n':
			pos += 2
		default:
			return pos, n
		}
		n++
	}
	return pos, n
}

// span is a field's bytes, data[lo:hi] of its block.
type span struct{ lo, hi int }

// splitRecord splits the record at data[pos], which is not an empty
// line, into fields appended to f[:0], and returns them, the offset
// past the record's line end and the number of lines the record spans.
// A quoted field is unescaped in place, so every field is a subslice of
// data. quotes is false when data holds no '"'. A record that does not
// split as encoding/csv splits it, or that does not have nf fields (any
// number when nf < 0), returns encoding/csv's sentinel for the fault.
func splitRecord(data []byte, pos int, quotes bool, nf int, f []span) ([]span, int, int, error) {
	f = f[:0]
	lines := 1
	eol := -1 // the end of the line at pos, once found
	for {
		if quotes && pos < len(data) && data[pos] == '"' {
			lo := pos + 1
			w, r := lo, lo
			for {
				j := bytes.IndexByte(data[r:], '"')
				if j < 0 {
					return f, 0, 0, csv.ErrQuote
				}
				if n := bytes.Count(data[r:r+j], []byte{'\n'}); n > 0 {
					lines += n
					for k := r; k < r+j; k++ {
						if data[k] == '\r' && data[k+1] == '\n' {
							continue
						}
						data[w] = data[k]
						w++
					}
				} else {
					w += copy(data[w:], data[r:r+j])
				}
				r += j + 1
				if r < len(data) && data[r] == '"' {
					data[w] = '"'
					w, r = w+1, r+1
					continue
				}
				break
			}
			f = append(f, span{lo, w})
			switch {
			case r < len(data) && data[r] == ',':
				pos = r + 1
				continue
			case r == len(data):
				pos = r
			case data[r] == '\n':
				pos = r + 1
			case data[r] == '\r' && r+1 < len(data) && data[r+1] == '\n':
				pos = r + 2
			default:
				return f, 0, 0, csv.ErrQuote
			}
			break
		}
		if pos > eol {
			eol = len(data)
			if j := bytes.IndexByte(data[pos:], '\n'); j >= 0 {
				eol = pos + j
			}
		}
		i := eol
		if j := bytes.IndexByte(data[pos:eol], ','); j >= 0 {
			i = pos + j
		}
		if quotes && bytes.IndexByte(data[pos:i], '"') >= 0 {
			return f, 0, 0, csv.ErrBareQuote
		}
		if i < eol {
			f = append(f, span{pos, i})
			pos = i + 1
			continue
		}
		end := i
		if end > pos && data[end-1] == '\r' {
			end--
		}
		f = append(f, span{pos, end})
		pos = min(i+1, len(data))
		break
	}
	if nf >= 0 && len(f) != nf {
		return f, 0, 0, csv.ErrFieldCount
	}
	return f, pos, lines, nil
}

// WriteCSV emits points as CSV with a header, decoding attributes
// through enc; the inverse of CSVSource for round-trip tests and the
// mbgen tool.
func WriteCSV(w io.Writer, schema Schema, enc *encode.Encoder, pts []core.Point) error {
	cw := csv.NewWriter(w)
	header := append([]string{}, schema.Metrics...)
	header = append(header, schema.Attributes...)
	if schema.TimeColumn != "" {
		header = append(header, schema.TimeColumn)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for i := range pts {
		p := &pts[i]
		row = row[:0]
		for _, m := range p.Metrics {
			row = append(row, strconv.FormatFloat(m, 'g', -1, 64))
		}
		for _, a := range p.Attrs {
			row = append(row, enc.Decode(a).Value)
		}
		if schema.TimeColumn != "" {
			row = append(row, strconv.FormatFloat(p.Time, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
