// Package ingest implements MacroBase's ingestion operators (paper
// §3.2 stage 1): a CSV source that projects configured metric and
// attribute columns into core.Points (encoding attributes through an
// encode.Encoder), plus the JSON query configuration used by the
// command-line tools.
package ingest

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

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

// CSVSource streams core.Points from CSV data with a header row. It is
// a one-partition core.PartitionedSource: every streaming query over a
// CSV file reads it through NextBatchInto, which parses rows straight
// into the engine's recycled batch. Next is the allocating read that
// collects a whole file for one-shot execution.
type CSVSource struct {
	r       *csv.Reader
	enc     *encode.Encoder
	schema  Schema
	metIdx  []int
	attrIdx []int
	timeIdx int
	line    int
	err     error
	buf     []core.Point
	// Per-row parse scratch for NextBatchInto, reused across calls.
	mbuf []float64
	abuf []int32
}

// NewCSVSource prepares a source reading from r. The first record must
// be a header naming every schema column. enc may be shared across
// sources; attribute columns are registered in schema order.
func NewCSVSource(r io.Reader, schema Schema, enc *encode.Encoder) (*CSVSource, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("ingest: reading header: %w", err)
	}
	byName := make(map[string]int, len(header))
	for i, h := range header {
		byName[h] = i
	}
	s := &CSVSource{r: cr, enc: enc, schema: schema, timeIdx: -1}
	for _, m := range schema.Metrics {
		i, ok := byName[m]
		if !ok {
			return nil, fmt.Errorf("ingest: metric column %q not in header %v", m, header)
		}
		s.metIdx = append(s.metIdx, i)
	}
	for _, a := range schema.Attributes {
		i, ok := byName[a]
		if !ok {
			return nil, fmt.Errorf("ingest: attribute column %q not in header %v", a, header)
		}
		s.attrIdx = append(s.attrIdx, i)
	}
	if schema.TimeColumn != "" {
		i, ok := byName[schema.TimeColumn]
		if !ok {
			return nil, fmt.Errorf("ingest: time column %q not in header %v", schema.TimeColumn, header)
		}
		s.timeIdx = i
	}
	return s, nil
}

// Encoder returns the encoder used for attribute values.
func (s *CSVSource) Encoder() *encode.Encoder { return s.enc }

// parseRow parses one CSV record into the provided metric/attribute
// buffers (len(s.metIdx) and len(s.attrIdx) slots) and returns the
// event time. Shared by the allocating path (Next) and the
// parse-in-place path (NextBatchInto) so the two cannot drift. The caller
// has already advanced s.line; errors are row-numbered but not
// latched — the caller latches.
func (s *CSVSource) parseRow(rec []string, metrics []float64, attrs []int32) (float64, error) {
	for j, idx := range s.metIdx {
		v, err := strconv.ParseFloat(rec[idx], 64)
		if err == nil {
			err = checkFinite(v)
		}
		if err != nil {
			return 0, fmt.Errorf("ingest: row %d: metric %q: %w", s.line, s.schema.Metrics[j], err)
		}
		metrics[j] = v
	}
	for j, idx := range s.attrIdx {
		attrs[j] = s.enc.Encode(j, rec[idx])
	}
	if s.timeIdx < 0 {
		return 0, nil
	}
	v, err := strconv.ParseFloat(rec[s.timeIdx], 64)
	if err == nil {
		err = checkFinite(v)
	}
	if err != nil {
		return 0, fmt.Errorf("ingest: row %d: time: %w", s.line, err)
	}
	return v, nil
}

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

// Next returns up to max freshly allocated points, or
// core.ErrEndOfStream when no rows remain. The returned slice is reused
// by the next call; the points' payloads are not. Rows with unparsable
// or non-finite metrics are reported as errors, not skipped: silent
// data loss hides exactly the anomalies MacroBase exists to find.
func (s *CSVSource) Next(max int) ([]core.Point, error) {
	if s.err != nil {
		return nil, s.err
	}
	if cap(s.buf) < max {
		s.buf = make([]core.Point, 0, max)
	}
	out := s.buf[:0]
	for len(out) < max {
		rec, err := s.r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = fmt.Errorf("ingest: %w", err)
			return nil, s.err
		}
		s.line++
		p := core.Point{
			Metrics: make([]float64, len(s.metIdx)),
			Attrs:   make([]int32, len(s.attrIdx)),
		}
		if p.Time, err = s.parseRow(rec, p.Metrics, p.Attrs); err != nil {
			s.err = err
			return nil, s.err
		}
		out = append(out, p)
	}
	s.buf = out
	if len(out) == 0 {
		return nil, core.ErrEndOfStream
	}
	return out, nil
}

// Partitions implements core.PartitionedSource: the source is its own
// one partition.
func (s *CSVSource) Partitions() []core.PartitionStream { return []core.PartitionStream{s} }

// NextBatchInto implements core.PartitionStream: it parses up to max
// rows directly into dst's recycled slabs and returns dst. Per-row cost
// is the csv.Reader's own record handling (one internal string
// allocation per record, the only allocator touch on this path) plus
// ParseFloat and interned attribute lookups. Returns
// core.ErrEndOfStream when no rows remain, with the same error latching
// and row-numbered diagnostics as Next. The context is checked once per
// call: a read is bounded by max rows.
func (s *CSVSource) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	if cap(s.mbuf) < len(s.metIdx) {
		s.mbuf = make([]float64, len(s.metIdx))
	}
	if cap(s.abuf) < len(s.attrIdx) {
		s.abuf = make([]int32, len(s.attrIdx))
	}
	mbuf := s.mbuf[:len(s.metIdx)]
	abuf := s.abuf[:len(s.attrIdx)]
	n := 0
	for n < max {
		rec, err := s.r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = fmt.Errorf("ingest: %w", err)
			return nil, s.err
		}
		s.line++
		t, err := s.parseRow(rec, mbuf, abuf)
		if err != nil {
			s.err = err
			return nil, s.err
		}
		dst.Append(mbuf, abuf, t)
		n++
	}
	if n == 0 {
		return nil, core.ErrEndOfStream
	}
	return dst, nil
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
