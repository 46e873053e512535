package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// rowReader is what BinaryRowReader and its oracle share.
type rowReader interface {
	ReadInto(b *core.Batch, max int) (int, error)
}

// chunkReader hands out data at most chunk bytes a Read (all of it when
// chunk is 0) and then fails with end, returned beside the last bytes
// when withData is set.
type chunkReader struct {
	data     []byte
	chunk    int
	end      error
	withData bool
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.end
	}
	n := len(p)
	if r.chunk > 0 {
		n = min(n, r.chunk)
	}
	n = copy(p, r.data[:min(n, len(r.data))])
	r.data = r.data[n:]
	if len(r.data) == 0 && r.withData {
		return n, r.end
	}
	return n, nil
}

var errSourceBroke = errors.New("source broke")

// binDiffSource is how one differential run feeds its input to both
// readers.
type binDiffSource struct {
	chunk    int
	end      error
	withData bool
}

func (s binDiffSource) reader(data []byte) io.Reader {
	return &chunkReader{data: data, chunk: s.chunk, end: s.end, withData: s.withData}
}

// binDecodeLog is everything one decode leaves: what each ReadInto call
// returned, the rows in the batch and the dictionary.
type binDecodeLog struct {
	calls []string
	rows  []string
	dict  []string
}

// decodeLogged reads d with ReadInto(max) until it fails, then once
// more to see the error latched (or EOF again), and logs the outcome.
func decodeLogged(d rowReader, enc *encode.Encoder, max int) binDecodeLog {
	var out binDecodeLog
	b := &core.Batch{}
	for i := 0; ; i++ {
		n, err := d.ReadInto(b, max)
		out.calls = append(out.calls, fmt.Sprintf("(%d, %v)", n, err))
		if err != nil {
			n, err = d.ReadInto(b, max)
			out.calls = append(out.calls, fmt.Sprintf("again (%d, %v)", n, err))
			break
		}
		if i > 1<<20 {
			out.calls = append(out.calls, "no end")
			break
		}
	}
	for _, p := range b.Points() {
		row := ""
		for _, m := range p.Metrics {
			row += fmt.Sprintf("%x ", math.Float64bits(m))
		}
		row += fmt.Sprintf("%v t=%x", p.Attrs, math.Float64bits(p.Time))
		out.rows = append(out.rows, row)
	}
	for id := int32(0); int(id) < enc.Size(); id++ {
		out.dict = append(out.dict, enc.Decode(id).String())
	}
	return out
}

// checkMatchesOracle decodes data with BinaryRowReader (a window of
// window bytes) and with the oracle, each on a fresh encoder, and fails
// on any difference: a call's rows or error text, a decoded row's bits,
// or the dictionary in id order.
func checkMatchesOracle(t *testing.T, data []byte, schema Schema, max, window int, src binDiffSource) {
	t.Helper()
	enc, oenc := encode.NewEncoder(schema.Attributes...), encode.NewEncoder(schema.Attributes...)
	got := decodeLogged(newBinaryRowReader(src.reader(data), schema, enc, window), enc, max)
	want := decodeLogged(newOracleRowReader(src.reader(data), schema, oenc), oenc, max)
	where := fmt.Sprintf("max %d, window %d, source %+v", max, window, src)
	if !slices.Equal(got.calls, want.calls) {
		t.Fatalf("%s: calls\n%q\nthe oracle's\n%q", where, got.calls, want.calls)
	}
	if !slices.Equal(got.rows, want.rows) {
		t.Fatalf("%s: %d rows\n%q\nthe oracle's %d\n%q", where, len(got.rows), got.rows, len(want.rows), want.rows)
	}
	if !slices.Equal(got.dict, want.dict) {
		t.Fatalf("%s: dictionary\n%q\nthe oracle's\n%q", where, got.dict, want.dict)
	}
}

// binDiffCases are the inputs the table test runs and the fuzz target
// starts from, each under binSchema.
func binDiffCases(t testing.TB) map[string][]byte {
	frames := binStreamN(t, 40, "")
	cases := map[string][]byte{
		"empty":         nil,
		"partial magic": []byte("MB"),
		"bad magic":     []byte("NOPE----"),
		"magic only":    []byte(BinaryMagic),
		"clean":         frames,
		// A length prefix past the limit, one past 64 bits (its tenth
		// byte is over 1), one of eleven bytes, and ten continuation
		// bytes and the end.
		"over limit":     append([]byte(BinaryMagic), 0xff, 0xff, 0xff, 0xff, 0x7f),
		"prefix 64 bits": append([]byte(BinaryMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02),
		"prefix 11":      append([]byte(BinaryMagic), bytes.Repeat([]byte{0x80}, 11)...),
		"prefix 10 end":  append([]byte(BinaryMagic), bytes.Repeat([]byte{0x80}, 10)...),
		"prefix torn":    append(append([]byte{}, frames...), 0x80),
		"zero body":      append(append([]byte{}, frames[:len(frames)/2]...), 0),
		"body none":      append(append([]byte{}, frames...), 9),
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cases[fmt.Sprintf("torn %d", seed)] = TornFrames(frames, seed)
	}
	// Non-finite values, wrong counts and trailing bytes, each after rows
	// that bring new values.
	bad := func(name string, row func(w *BinaryRowWriter) error) {
		var buf bytes.Buffer
		buf.Write(binStreamN(t, 5, name+"-"))
		w := NewBinaryRowWriter(&buf)
		w.begun = true
		if err := row(w); err != nil {
			t.Fatal(err)
		}
		buf.Write(binStreamN(t, 3, "after-")[len(BinaryMagic):])
		cases[name] = buf.Bytes()
	}
	bad("nan metric", func(w *BinaryRowWriter) error {
		return w.WriteRow([]float64{1, math.NaN()}, []string{"x", "y"}, 0)
	})
	bad("inf time", func(w *BinaryRowWriter) error {
		return w.WriteRow([]float64{1, 2}, []string{"x", "y"}, math.Inf(-1))
	})
	bad("one metric", func(w *BinaryRowWriter) error {
		return w.WriteRow([]float64{1}, []string{"x", "y"}, 0)
	})
	bad("three attrs", func(w *BinaryRowWriter) error {
		return w.WriteRow([]float64{1, 2}, []string{"x", "y", "z"}, 0)
	})
	trailing := binStreamN(t, 6, "trail-")
	// Inflate the third row's declared length by one and supply the byte.
	off := len(BinaryMagic)
	for i := 0; i < 2; i++ {
		n, k := binary.Uvarint(trailing[off:])
		off += k + int(n)
	}
	n, k := binary.Uvarint(trailing[off:])
	var grown []byte
	grown = append(grown, trailing[:off]...)
	grown = binary.AppendUvarint(grown, n+1)
	grown = append(grown, trailing[off+k:off+k+int(n)]...)
	grown = append(grown, 0x00)
	grown = append(grown, trailing[off+k+int(n):]...)
	cases["trailing"] = grown
	// Rows that straddle a refill of the default window, and a row
	// longer than it between short ones.
	cases["straddle"] = binStreamN(t, 3000, "s-")
	var long bytes.Buffer
	w := NewBinaryRowWriter(&long)
	for i := 0; i < 5; i++ {
		v := fmt.Sprintf("v%d", i)
		if i == 2 {
			v = strings.Repeat("L", binaryWindow+100)
		}
		if err := w.WriteRow([]float64{float64(i), 1}, []string{fmt.Sprintf("d%d", i), v}, 0); err != nil {
			t.Fatal(err)
		}
	}
	cases["long row"] = long.Bytes()
	return cases
}

// binStreamN is binStream with attribute values under prefix, so that a
// stream can bring values no other stream has.
func binStreamN(t testing.TB, n int, prefix string) []byte {
	var buf bytes.Buffer
	w := NewBinaryRowWriter(&buf)
	for i := 0; i < n; i++ {
		err := w.WriteRow(
			[]float64{float64(i), float64(i) / 2},
			[]string{fmt.Sprintf("%sd%d", prefix, i%13), fmt.Sprintf("%sv%d", prefix, i%3)},
			float64(i%4)*0.25,
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// binDiffSources are the ways the table test feeds an input: whole,
// in short reads that force refills, and ending in an error of the
// source's own, alone or beside the last bytes.
var binDiffSources = []binDiffSource{
	{end: io.EOF},
	{chunk: 3, end: io.EOF},
	{chunk: 1000, end: io.EOF, withData: true},
	{chunk: 5, end: errSourceBroke},
	{end: errSourceBroke, withData: true},
}

// TestBinaryRowsMatchOracle holds BinaryRowReader to the reader it
// replaced on every case, source, read size and window: the default one
// and windows small enough that rows straddle refills and outgrow them.
func TestBinaryRowsMatchOracle(t *testing.T) {
	for name, data := range binDiffCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, src := range binDiffSources {
				for _, max := range []int{1, 7, 300, 8192} {
					for _, window := range []int{binaryWindow, 1, 13, 100} {
						checkMatchesOracle(t, data, binSchema, max, window, src)
					}
				}
			}
		})
	}
}

// TestBinaryRowsBadRowMidBlockMatchesOracle: a bad row in the middle of
// a block, each earlier row of which brings new values in every column,
// fails at each place a row can fail; the rows before it, the values it
// interns and the error match the oracle's.
func TestBinaryRowsBadRowMidBlockMatchesOracle(t *testing.T) {
	for k, bad := range []internRow{
		{cutAt: 2},
		{cutAt: 3, badLen: true},
		{cutAt: 1, badLen: true},
		{trailing: true},
	} {
		frame := []byte(BinaryMagic)
		for i := 0; i < 2*internRows+40; i++ {
			r := internRow{attrs: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%7), fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i%2)}}
			if i == internRows+20 {
				r = bad
				r.attrs = []string{fmt.Sprintf("bad%d-a", k), fmt.Sprintf("b%d", i+1), "bad-c", fmt.Sprintf("d%d", k+9)}
			}
			frame = appendInternRow(frame, r)
		}
		for _, max := range []int{5, internRows, 8192} {
			for _, window := range []int{binaryWindow, 50} {
				checkMatchesOracle(t, frame, internSchema, max, window, binDiffSource{end: io.EOF})
			}
		}
	}
}

// FuzzBinaryRowsMatchOracle holds BinaryRowReader to the oracle on any
// input, read size, window and source.
func FuzzBinaryRowsMatchOracle(f *testing.F) {
	for _, data := range binDiffCases(f) {
		if len(data) < 4096 {
			f.Add(data, uint16(7), uint16(0), uint8(0), uint8(0))
			f.Add(data, uint16(300), uint16(13), uint8(3), uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, max, window uint16, chunk, end uint8) {
		w := binaryWindow
		if window > 0 {
			w = int(window%512) + 1
		}
		src := binDiffSource{chunk: int(chunk % 64), end: io.EOF, withData: end&2 != 0}
		if end&1 != 0 {
			src.end = errSourceBroke
		}
		checkMatchesOracle(t, data, binSchema, int(max%1024)+1, w, src)
	})
}
