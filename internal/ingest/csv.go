// Package ingest implements MacroBase's ingestion operators (paper
// §3.2 stage 1): a CSV source that projects configured metric and
// attribute columns into core.Points (encoding attributes through an
// encode.Encoder), plus the JSON query configuration used by the
// command-line tools.
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

// CSVSource streams core.Points from RFC 4180 CSV data with a header
// row, as encoding/csv reads it: empty lines are skipped, \r\n inside
// and at the end of a line reads as \n, and every record must have the
// header's number of fields. It reads the input in blocks of whole
// records and splits fields over the block's bytes, so a row costs no
// allocation: an unquoted field is a subslice of the block, a quoted
// one is unescaped in place, metrics are parsed from the field bytes
// and attributes interned with encode.Encoder.EncodeBytesInto.
//
// Three reads share that parser. NextBatchInto, the streaming read,
// parses the current block serially into the engine's recycled batch:
// the source is a one-partition core.PartitionedSource. ReadAll, the
// one-shot read, parses blocks on GOMAXPROCS goroutines and interns
// their attributes in file order on the calling one, so its points and
// encoder ids are those of a serial read. Next, a serial read into
// fresh points, stays only because the benchmark harness's staged
// replay (bench/replay.go) reads a file through it.
type CSVSource struct {
	br      blockReader
	enc     *encode.Encoder
	cols    columns
	fields  []span   // the current record's fields
	vals    [][]byte // the current record's attribute values
	blk     []byte   // the current block; the serial read is at blk[pos:]
	pos     int
	quotes  bool // whether blk holds a '"'
	row     int  // records read, the header not counted
	line    int  // newlines read: the next record starts on line+1
	recLine int  // the line the last record started on
	err     error
	mbuf    []float64 // per-row parse scratch for NextBatchInto
	abuf    []int32
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
	s.cols.fields = -1
	data, err := s.split()
	if err != nil {
		return nil, fmt.Errorf("ingest: reading header: %w", err)
	}
	s.row = 0
	header := make([]string, len(s.fields))
	byName := make(map[string]int, len(header))
	for i, f := range s.fields {
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
	s.vals = make([][]byte, len(s.cols.attr))
	s.mbuf = make([]float64, len(s.cols.met))
	s.abuf = make([]int32, len(s.cols.attr))
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

// parseFloat parses a metric or time field.
func parseFloat(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err == nil {
		err = checkFinite(v)
	}
	return v, err
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

// values points vals at a split record's attribute fields.
func (c *columns) values(data []byte, f []span, vals [][]byte) {
	for j, i := range c.attr {
		vals[j] = data[f[i].lo:f[i].hi]
	}
}

// split advances the serial read to its next record, cutting the next
// block when the current one is used up, and leaves its fields in
// s.fields; it returns the block they index. It returns io.EOF past the
// last record, the encoding/csv sentinel for a record that does not
// split, and the input's error for a failed read.
func (s *CSVSource) split() ([]byte, error) {
	for {
		var skipped int
		s.pos, skipped = skipEmpty(s.blk, s.pos)
		s.line += skipped
		if s.pos < len(s.blk) {
			break
		}
		blk, err := s.br.next(s.blk)
		if err != nil {
			return nil, err
		}
		s.blk, s.pos, s.quotes = blk, 0, bytes.IndexByte(blk, '"') >= 0
	}
	s.row++
	s.recLine = s.line + 1
	f, next, lines, err := splitRecord(s.blk, s.pos, s.quotes, s.cols.fields, s.fields)
	s.fields = f
	if err != nil {
		return nil, err
	}
	s.pos, s.line = next, s.line+lines
	return s.blk, nil
}

// nextRow parses the serial read's next row into met and ids and
// returns its time, or io.EOF past the last row. Errors are not
// latched; the caller latches.
func (s *CSVSource) nextRow(met []float64, ids []int32) (float64, error) {
	data, err := s.split()
	if err == io.EOF {
		return 0, err
	}
	if err == csv.ErrBareQuote || err == csv.ErrQuote || err == csv.ErrFieldCount {
		return 0, &badRow{s.row, s.recLine, err}
	}
	if err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	t, err := s.cols.nums(data, s.fields, met)
	if err != nil {
		return 0, &badRow{s.row, s.recLine, err}
	}
	s.cols.values(data, s.fields, s.vals)
	s.enc.EncodeBytesInto(ids, s.vals)
	return t, nil
}

// Next returns up to max freshly allocated points, or
// core.ErrEndOfStream when no rows remain: a serial read into a new
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

// NextBatchInto implements core.PartitionStream: it parses up to max
// rows serially, directly into dst's recycled slabs, and returns dst.
// Once the encoder knows a row's attribute values, a row allocates
// nothing. Returns core.ErrEndOfStream when no rows remain. A bad row's
// error is latched: every later read returns it. The context is checked
// once per call: a read is bounded by max rows.
func (s *CSVSource) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	n := 0
	for ; n < max; n++ {
		t, err := s.nextRow(s.mbuf, s.abuf)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = err
			return nil, err
		}
		dst.Append(s.mbuf, s.abuf, t)
	}
	if n == 0 {
		return nil, core.ErrEndOfStream
	}
	return dst, nil
}

// ReadAll reads every remaining row into fresh points: the one-shot
// read. Up to GOMAXPROCS goroutines split blocks and parse their
// metrics and times while the caller cuts the blocks and takes them
// back in file order to intern their attributes, so the points and
// every encoder id are those a serial read gives, and so is the error
// of the first bad row in file order, which is latched as NextBatchInto
// latches it.
func (s *CSVSource) ReadAll() ([]core.Point, error) {
	return s.readAll(runtime.GOMAXPROCS(0))
}

// parsed is what a block's parse leaves for the point views: fresh
// slabs, one row after another.
type parsed struct {
	rows  int
	met   []float64
	ids   []int32
	times []float64 // nil without a time column
}

// block is one cut of the input on its way through readAll.
type block struct {
	data []byte // recycled across cuts
	parsed
	lines  int           // newlines in data, or before the bad row when bad is set
	bad    error         // the cause of the first bad row, which is row rows+1
	attrs  []span        // each row's attribute fields, in schema order
	fields []span        // the parse's scratch
	done   chan struct{} // the parse is over; buffered, so the parser never waits
}

// readAll is ReadAll on workers parsing goroutines.
func (s *CSVSource) readAll(workers int) ([]core.Point, error) {
	if s.err != nil {
		return nil, s.err
	}
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
		kept         []parsed
		err, readErr error
	)
	blocks := make([]block, inflight)
	for i := range blocks {
		blocks[i].done = make(chan struct{}, 1)
		spare[i] = &blocks[i]
	}
	na := len(s.cols.attr)
	first := s.blk[s.pos:] // what the serial read left of its block
	for {
		for readErr == nil && len(flight) < inflight {
			b := spare[len(spare)-1]
			spare = spare[:len(spare)-1]
			if len(first) > 0 {
				b.data, first = first, nil
			} else if b.data, readErr = s.br.next(b.data); readErr != nil {
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
		for r := 0; r < b.rows; r++ {
			for j, f := range b.attrs[r*na : (r+1)*na] {
				s.vals[j] = b.data[f.lo:f.hi]
			}
			s.enc.EncodeBytesInto(b.ids[r*na:(r+1)*na], s.vals)
		}
		s.row += b.rows
		if b.bad != nil {
			err = &badRow{s.row + 1, s.line + b.lines + 1, b.bad}
			break
		}
		kept = append(kept, b.parsed)
		s.line += b.lines
		b.parsed = parsed{}
		spare = append(spare, b)
	}
	close(work)
	wg.Wait()
	s.blk, s.pos = nil, 0
	if err == nil && readErr != io.EOF {
		err = fmt.Errorf("ingest: %w", readErr)
	}
	if err != nil {
		s.err = err
		return nil, err
	}

	total := 0
	for _, p := range kept {
		total += p.rows
	}
	nm := len(s.cols.met)
	pts := make([]core.Point, 0, total)
	for _, p := range kept {
		for i := 0; i < p.rows; i++ {
			pt := core.Point{
				Metrics: p.met[i*nm : (i+1)*nm : (i+1)*nm],
				Attrs:   p.ids[i*na : (i+1)*na : (i+1)*na],
			}
			if p.times != nil {
				pt.Time = p.times[i]
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// parse splits every record of b, parses its metrics and time into
// fresh slabs sized from the block's line count and notes where its
// attribute values are, for the caller to intern in file order. It
// stops at the first bad row.
func (c *columns) parse(b *block) {
	data := b.data
	nm, na := len(c.met), len(c.attr)
	quotes := bytes.IndexByte(data, '"') >= 0
	// Every row but one the read stops at ends in a '\n'.
	most := bytes.Count(data, []byte{'\n'}) + 1
	b.met = make([]float64, most*nm)
	b.ids = make([]int32, most*na)
	if c.time >= 0 {
		b.times = make([]float64, most)
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
