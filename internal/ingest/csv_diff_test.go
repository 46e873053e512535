package ingest

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// The differential tests hold CSVSource to encoding/csv, which it
// replaced: the same points, the same encoder ids, and the same first
// bad row, named by the same row and line and failing for the same
// reason, through every read at block sizes that make records straddle
// the cuts.

// diffSchema reads columns out of header order, with a time column.
var diffSchema = Schema{Metrics: []string{"m"}, Attributes: []string{"a", "b"}, TimeColumn: "t"}

const diffHeader = "a,m,b,t\n"

// csvOutcome is what one read of a CSV text gives.
type csvOutcome struct {
	headerErr bool
	pts       []core.Point
	enc       *encode.Encoder
	row, line int   // the first bad row and its first line; 0 when none
	cause     error // why that row is bad
}

// oracleRead reads data as CSVSource did over encoding/csv: a record
// that does not split fails with its ParseError, then the metrics and
// time are parsed, then the attributes interned.
func oracleRead(data string, schema Schema) csvOutcome {
	out := csvOutcome{enc: encode.NewEncoder(schema.Attributes...)}
	r := csv.NewReader(strings.NewReader(data))
	header, err := r.Read()
	if err != nil {
		out.headerErr = true
		return out
	}
	idx := map[string]int{}
	for i, h := range header {
		idx[h] = i
	}
	for _, c := range append(append([]string{schema.TimeColumn}, schema.Metrics...), schema.Attributes...) {
		if _, ok := idx[c]; !ok && c != "" {
			out.headerErr = true
			return out
		}
	}
	num := func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = errNonFinite
		}
		return v, err
	}
	for row := 1; ; row++ {
		rec, err := r.Read()
		if err == io.EOF {
			return out
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			out.row, out.line, out.cause = row, pe.StartLine, pe.Err
			return out
		}
		line, _ := r.FieldPos(0)
		p := core.Point{Metrics: make([]float64, len(schema.Metrics)), Attrs: make([]int32, len(schema.Attributes))}
		var cause error
		for j, m := range schema.Metrics {
			if p.Metrics[j], err = num(rec[idx[m]]); err != nil {
				cause = fmt.Errorf("metric %q: %w", m, err)
				break
			}
		}
		if cause == nil && schema.TimeColumn != "" {
			if p.Time, err = num(rec[idx[schema.TimeColumn]]); err != nil {
				cause = fmt.Errorf("time: %w", err)
			}
		}
		if cause != nil {
			out.row, out.line, out.cause = row, line, cause
			return out
		}
		for j, a := range schema.Attributes {
			p.Attrs[j] = out.enc.Encode(j, rec[idx[a]])
		}
		out.pts = append(out.pts, p)
	}
}

// settle records how a read ended in out: a bad row's numbers and
// cause, or the failure itself when it is not a bad row.
func (out *csvOutcome) settle(t *testing.T, name string, err error) {
	var br *badRow
	switch {
	case err == nil:
	case errors.As(err, &br) && errors.Is(err, ErrBadRow):
		out.row, out.line, out.cause = br.row, br.line, br.err
	default:
		t.Fatalf("%s: %v, want a bad row or none", name, err)
	}
}

// csvReads are the reads under test, each over a source cutting blocks
// of size bytes.
var csvReads = []struct {
	name string
	read func(t *testing.T, data string, schema Schema, size int) csvOutcome
}{
	{"Next", func(t *testing.T, data string, schema Schema, size int) csvOutcome {
		out := csvOutcome{enc: encode.NewEncoder(schema.Attributes...)}
		src, err := newCSVSource(iotest.OneByteReader(strings.NewReader(data)), schema, out.enc, size)
		if err != nil {
			out.headerErr = true
			return out
		}
		for {
			pts, err := src.Next(3)
			if err == core.ErrEndOfStream {
				return out
			}
			if err != nil {
				out.settle(t, "Next", err)
				return out
			}
			out.pts = append(out.pts, pts...)
		}
	}},
	{"NextBatchInto/1", nextBatchIntoAt(1)},
	{"NextBatchInto/2", nextBatchIntoAt(2)},
	{"NextBatchInto/7", nextBatchIntoAt(7)},
	{"NextBatchInto/4096", nextBatchIntoAt(4096)},
	{"ReadAll/1", readAllAt(1)},
	{"ReadAll/2", readAllAt(2)},
	{"ReadAll/8", readAllAt(8)},
}

// nextBatchIntoAt reads into one batch max rows at a time, so reads
// end inside blocks, at their ends and past them.
func nextBatchIntoAt(max int) func(t *testing.T, data string, schema Schema, size int) csvOutcome {
	return func(t *testing.T, data string, schema Schema, size int) csvOutcome {
		out := csvOutcome{enc: encode.NewEncoder(schema.Attributes...)}
		src, err := newCSVSource(strings.NewReader(data), schema, out.enc, size)
		if err != nil {
			out.headerErr = true
			return out
		}
		b := &core.Batch{}
		for {
			_, err := src.NextBatchInto(context.Background(), b, max)
			if err == core.ErrEndOfStream {
				out.pts = b.Points()
				return out
			}
			if err != nil {
				out.settle(t, "NextBatchInto", err)
				return out
			}
		}
	}
}

func readAllAt(workers int) func(t *testing.T, data string, schema Schema, size int) csvOutcome {
	return func(t *testing.T, data string, schema Schema, size int) csvOutcome {
		out := csvOutcome{enc: encode.NewEncoder(schema.Attributes...)}
		src, err := newCSVSource(iotest.HalfReader(strings.NewReader(data)), schema, out.enc, size)
		if err != nil {
			out.headerErr = true
			return out
		}
		pts, err := src.readAll(workers)
		out.pts = pts
		out.settle(t, "ReadAll", err)
		return out
	}
}

// sameOutcome reports where got departs from want.
func sameOutcome(got, want csvOutcome) string {
	switch {
	case got.headerErr != want.headerErr:
		return fmt.Sprintf("header failed: %v, encoding/csv's %v", got.headerErr, want.headerErr)
	case got.headerErr:
		return ""
	case (got.cause == nil) != (want.cause == nil):
		return fmt.Sprintf("error %v, encoding/csv's %v", got.cause, want.cause)
	case got.cause != nil && (got.row != want.row || got.line != want.line || got.cause.Error() != want.cause.Error()):
		return fmt.Sprintf("row %d (line %d): %v; encoding/csv's row %d (line %d): %v",
			got.row, got.line, got.cause, want.row, want.line, want.cause)
	}
	if got.enc.Size() != want.enc.Size() {
		return fmt.Sprintf("%d interned values, encoding/csv's %d", got.enc.Size(), want.enc.Size())
	}
	for id := int32(0); int(id) < want.enc.Size(); id++ {
		if g, w := got.enc.Decode(id), want.enc.Decode(id); g != w {
			return fmt.Sprintf("id %d is %v, encoding/csv's %v", id, g, w)
		}
	}
	if got.cause != nil {
		return "" // the points of a failed read depend on how it was cut
	}
	if len(got.pts) != len(want.pts) {
		return fmt.Sprintf("%d points, encoding/csv's %d", len(got.pts), len(want.pts))
	}
	for i := range want.pts {
		g, w := got.pts[i], want.pts[i]
		same := len(g.Metrics) == len(w.Metrics) && len(g.Attrs) == len(w.Attrs) &&
			math.Float64bits(g.Time) == math.Float64bits(w.Time)
		for j := 0; same && j < len(w.Metrics); j++ {
			same = math.Float64bits(g.Metrics[j]) == math.Float64bits(w.Metrics[j])
		}
		for j := 0; same && j < len(w.Attrs); j++ {
			same = g.Attrs[j] == w.Attrs[j]
		}
		if !same {
			return fmt.Sprintf("point %d is %+v, encoding/csv's %+v", i, g, w)
		}
	}
	return ""
}

// checkAgainstCSV runs every read over data at each block size and
// fails on the first departure from encoding/csv.
func checkAgainstCSV(t *testing.T, name, data string, schema Schema, sizes ...int) {
	t.Helper()
	want := oracleRead(data, schema)
	for _, size := range sizes {
		for _, r := range csvReads {
			if d := sameOutcome(r.read(t, data, schema, size), want); d != "" {
				t.Fatalf("%s via %s, %d-byte blocks: %s\ninput %q", name, r.name, size, d, data)
			}
		}
	}
}

// csvCorpus is the differential corpus: each case a body after
// diffHeader, or a whole text when its name starts with "!".
var csvCorpus = []struct{ name, body string }{
	{"plain", "x,1.5,y,10\nx2,2,y,11\nx,3e2,y2,12\n"},
	{"no final newline", "x,1.5,y,10\nx2,2,y,11"},
	{"final CR", "x,1.5,y,10\nx2,2,y,11\r"},
	{"CRLF", "x,1.5,y,10\r\nx2,2,y,11\r\n"},
	{"CR inside a field", "x\ry,1,y\r,2\n"},
	{"two CRs at a line end", "x,1,y,2\r\r\nx,1,y,3\r\r"},
	{"quoted", "\"x,1\",2,\"y\"\"z\",3\n\"\",\"4\",\"\"\"\",5\n"},
	{"quoted newline", "\"line\nbreak\",3,b,4\nx,5,\"two\n\nbreaks\",6\n"},
	{"quoted CRLF", "\"cr\r\nlf\",4,b,5\r\n\"lone\rcr\",5,\"cr\r\r\n\",6\r\n"},
	{"quoted then CRLF", "\"x\",1,\"y\"\r\n\"x\",2,\"y\"\r\n"},
	{"quoted at EOF", "\"x\",1,\"y\",\"2\""},
	{"quoted then CR at EOF", "\"x\",1,\"y\",\"2\"\r"},
	{"empty lines", "\nx,1,y,2\n\n\r\n\nx,2,y,3\n\n"},
	{"empty fields", ",1,,2\n,3,,4"},
	{"unicode", "héllo,1,wörld,2\n\"日本\",3,\"語\n\",4\n"},
	{"ragged short", "x,1,y,2\nx,1,y\nx,2,y,3\n"},
	{"ragged long", "x,1,y,2\nx,1,y,2,3\n"},
	{"blank-ish line", "x,1,y,2\n \nx,2,y,3\n"},
	{"bare quote", "x,1,y,2\nx\"y,1,b,2\n"},
	{"bare quote late in a record", "x,1,y,2\nx,1,b,2\"\n"},
	{"bare quote after a quoted newline", "\"a\nb\",1,c\"d,2\n"},
	{"text after a closing quote", "x,1,y,2\n\"a\"x,1,b,2\n"},
	{"CR after a closing quote", "\"a\"\rx,1,b,2\n"},
	{"unterminated quote", "x,1,y,2\n\"abc,1,b,2\n"},
	{"unterminated quote at EOF", "x,1,y,2\n\"abc"},
	{"quote opened mid-file", "x,1,y,2\nx,1,y,\"2\nx,1,y,2\nx,1,y,2\n"},
	{"ragged and bare quote", "x,1,y,2,5\"\n"},
	{"NaN metric", "x,1,y,2\nx,NaN,y,3\n"},
	{"Inf time", "x,1,y,2\nx,2,y,+Inf\n"},
	{"unparsable metric", "x,1,y,2\nx,xyz,y,3\n"},
	{"empty metric", "x,,y,3\n"},
	{"bad time after a bad metric", "x,oops,y,noon\n"},
	{"quoted newline before a bad metric", "\"a\nb\",1,c,2\n\nx,xyz,y,3\n"},
	{"bad metric after an empty line", "x,1,y,2\n\r\n\nx,1,y,oops\n"},
	{"long record", "x,1," + strings.Repeat("long", 300) + ",2\nx,2,\"" + strings.Repeat("q\"\"\n", 200) + "\",3\n"},
	{"!empty input", ""},
	{"!empty lines only", "\n\r\n\n"},
	{"!header only", "a,m,b,t"},
	{"!quoted header", "\"a\",\"m\",b,\"t\"\r\nx,1,y,2\r\n"},
	{"!header after empty lines", "\n\na,m,b,t\nx,1,y,2\n"},
	{"!bare quote in header", "a,m\",b,t\nx,1,y,2\n"},
	{"!header missing a column", "a,m,t\nx,1,2\n"},
	{"!extra columns", "z,a,m,b,t,zz\n0,x,1,y,2,\"\"\n0,x,2,y,3,q\n"},
}

func corpusText(name, body string) string {
	if strings.HasPrefix(name, "!") {
		return body
	}
	return diffHeader + body
}

// TestCSVMatchesEncodingCSV: over the corpus, every read agrees with
// encoding/csv at block sizes from one byte to the default.
func TestCSVMatchesEncodingCSV(t *testing.T) {
	for _, c := range csvCorpus {
		checkAgainstCSV(t, c.name, corpusText(c.name, c.body), diffSchema, 1, 2, 3, 7, 16, 64, blockSize)
	}
}

// randomCSV builds a body of n records from fragments that exercise
// every path of the splitter; fault in (0,1] is the chance a record
// carries a fault.
func randomCSV(rng *rand.Rand, n int, fault float64) string {
	attrs := []string{"x", "y", "", "dev7", "\"q\"", "\"a,b\"", "\"a\"\"b\"", "\"l\nm\"", "\"c\r\nd\"", "\"\"", "é"}
	nums := []string{"1", "-2.5", "3e4", "0", "\"7\"", "1e-300", ".5", "12345678901234567890"}
	bad := []string{"x\"y", "\"a\"b", "NaN", "Inf", "oops", "", "\"open"}
	ends := []string{"\n", "\r\n", "\n\n", "\r\n\r\n"}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		f := []string{attrs[rng.IntN(len(attrs))], nums[rng.IntN(len(nums))], attrs[rng.IntN(len(attrs))], nums[rng.IntN(len(nums))]}
		if rng.Float64() < fault {
			switch rng.IntN(3) {
			case 0:
				f[rng.IntN(4)] = bad[rng.IntN(len(bad))]
			case 1:
				f = f[:rng.IntN(4)]
			default:
				f = append(f, "extra")
			}
		}
		sb.WriteString(strings.Join(f, ","))
		if i < n-1 || rng.IntN(2) == 0 {
			sb.WriteString(ends[rng.IntN(len(ends))])
		}
	}
	return sb.String()
}

// TestCSVMatchesEncodingCSVRandom: generated texts, most with a fault
// somewhere, agree with encoding/csv through every read.
func TestCSVMatchesEncodingCSVRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 300; i++ {
		body := randomCSV(rng, 1+rng.IntN(40), 0.02)
		checkAgainstCSV(t, fmt.Sprintf("case %d", i), diffHeader+body, diffSchema, 1+rng.IntN(48), blockSize)
	}
}

// TestCSVReadAllManyBlocks: a clean file of thousands of rows cut into
// hundreds of blocks, over an encoder that already knows some of its
// values in another order, reads as encoding/csv does at every worker
// count: workers find the known values, the caller interns the rest in
// file order.
func TestCSVReadAllManyBlocks(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	data := diffHeader + randomCSV(rng, 5000, 0)
	want := oracleRead(data, diffSchema)
	if want.cause != nil || len(want.pts) != 5000 {
		t.Fatalf("oracle: %d points, %v", len(want.pts), want.cause)
	}
	col := func(a core.Attribute) int {
		if a.Column == "a" {
			return 0
		}
		return 1
	}
	unseeded := want.enc
	seed := func() *encode.Encoder {
		enc := encode.NewEncoder(diffSchema.Attributes...)
		for id := int32(unseeded.Size()) - 1; id >= 0; id -= 3 {
			a := unseeded.Decode(id)
			enc.Encode(col(a), a.Value)
		}
		return enc
	}
	oracleSeeded := seed()
	for i := range want.pts {
		for j := range want.pts[i].Attrs {
			a := unseeded.Decode(want.pts[i].Attrs[j])
			want.pts[i].Attrs[j] = oracleSeeded.Encode(col(a), a.Value)
		}
	}
	want.enc = oracleSeeded
	for _, workers := range []int{1, 2, 3, 8} {
		got := csvOutcome{enc: seed()}
		src, err := newCSVSource(strings.NewReader(data), diffSchema, got.enc, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if got.pts, err = src.readAll(workers); err != nil {
			t.Fatal(err)
		}
		if d := sameOutcome(got, want); d != "" {
			t.Fatalf("%d workers: %s", workers, d)
		}
	}
}

// TestCSVReadAllAfterNext: ReadAll takes the rest of a file whose first
// rows Next read, at block sizes from one byte to the default, so it
// starts inside a block, at its end, or with blocks still uncut; then
// the source is at its end. A bad row's error is latched for every
// later read, whether ReadAll or Next cut its block.
func TestCSVReadAllAfterNext(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	data := diffHeader + randomCSV(rng, 300, 0)
	want := oracleRead(data, diffSchema)
	for _, size := range []int{1, 2, 3, 7, 16, 64, 512, blockSize} {
		got := csvOutcome{enc: encode.NewEncoder(diffSchema.Attributes...)}
		src, err := newCSVSource(strings.NewReader(data), diffSchema, got.enc, size)
		if err != nil {
			t.Fatal(err)
		}
		first, err := src.Next(7)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := src.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		got.pts = append(first, rest...)
		if d := sameOutcome(got, want); d != "" {
			t.Fatalf("%d-byte blocks: %s", size, d)
		}
		if pts, err := src.ReadAll(); len(pts) != 0 || err != nil {
			t.Errorf("%d-byte blocks: ReadAll at the end: %d points, %v", size, len(pts), err)
		}
		if _, err := src.Next(1); err != core.ErrEndOfStream {
			t.Errorf("%d-byte blocks: Next after ReadAll: %v, want core.ErrEndOfStream", size, err)
		}
	}

	src, err := newCSVSource(strings.NewReader(diffHeader+"x,1,y,2\nx,2,y,3\nx,bad,y,3\n"), diffSchema, encode.NewEncoder("a", "b"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(1); err != nil {
		t.Fatal(err)
	}
	_, err = src.ReadAll()
	if !errors.Is(err, ErrBadRow) || !strings.Contains(err.Error(), "row 3 (line 4)") {
		t.Fatalf("ReadAll after Next cut the bad row's block: %v, want a bad row 3 (line 4)", err)
	}
	if _, err2 := src.Next(1); err2 != err {
		t.Errorf("Next after a failed ReadAll: %v, want the latched %v", err2, err)
	}

	src, err = NewCSVSource(strings.NewReader(diffHeader+"x,1,y,2\n\"a\nb\",1,c,2\nx,bad,y,3\n"), diffSchema, encode.NewEncoder("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = src.ReadAll()
	if !errors.Is(err, ErrBadRow) || !strings.Contains(err.Error(), "row 3 (line 5)") {
		t.Fatalf("ReadAll: %v, want a bad row 3 (line 5)", err)
	}
	if _, err2 := src.ReadAll(); err2 != err {
		t.Errorf("second ReadAll: %v, want the latched %v", err2, err)
	}
	if _, err2 := src.Next(1); err2 != err {
		t.Errorf("Next after a failed ReadAll: %v, want the latched %v", err2, err)
	}
}

// TestCSVReadAllFailedRead: a read that fails after whole records ends
// ReadAll with the input's error, which is not a bad row.
func TestCSVReadAllFailedRead(t *testing.T) {
	in := io.MultiReader(strings.NewReader(diffHeader+"x,1,y,2\nx,2,y,3\nx,3"), iotest.ErrReader(io.ErrClosedPipe))
	src, err := newCSVSource(in, diffSchema, encode.NewEncoder("a", "b"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.readAll(2); !errors.Is(err, io.ErrClosedPipe) || errors.Is(err, ErrBadRow) {
		t.Fatalf("ReadAll over a failing reader: %v, want io.ErrClosedPipe and not a bad row", err)
	}
}

// FuzzCSVMatchesEncodingCSV: any body after a fixed header reads as
// encoding/csv reads it, through every read, at a block size the fuzzer
// picks.
func FuzzCSVMatchesEncodingCSV(f *testing.F) {
	for _, c := range csvCorpus {
		f.Add([]byte(c.body), uint8(len(c.body)))
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 20; i++ {
		f.Add([]byte(randomCSV(rng, 1+rng.IntN(10), 0.1)), uint8(rng.IntN(256)))
	}
	f.Fuzz(func(t *testing.T, body []byte, size uint8) {
		checkAgainstCSV(t, "fuzz", diffHeader+string(body), diffSchema, 1+int(size)%64)
	})
}
