package ingest

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// ndjsonBody writes the rows binStream writes, as NDJSON records.
func ndjsonBody(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"metrics":[%v,%v],"attributes":{"device":"d%d","version":"v%d"},"time":%v}`+"\n",
			float64(i), float64(i)/2, i%13, i%3, float64(i)+0.25)
	}
	return b.String()
}

// TestPushDecoderFormatsAgree: NDJSON and MBR1 bodies of the same
// records decode into identical batches — metrics, attribute ids and
// times — through decoders over equal encoders, body after body.
func TestPushDecoderFormatsAgree(t *testing.T) {
	const n = 300
	bin, nd := &core.Batch{}, &core.Batch{}
	binDec := NewPushDecoder(binSchema, encode.NewEncoder("device", "version"))
	ndDec := NewPushDecoder(binSchema, encode.NewEncoder("device", "version"))
	for body := 0; body < 2; body++ {
		if err := binDec.Decode(bytes.NewReader(binStream(t, n)), true, bin); err != nil {
			t.Fatal(err)
		}
		if err := ndDec.Decode(strings.NewReader(ndjsonBody(n)), false, nd); err != nil {
			t.Fatal(err)
		}
	}
	if bin.Len() != 2*n || nd.Len() != 2*n {
		t.Fatalf("decoded %d binary and %d NDJSON records, want %d each", bin.Len(), nd.Len(), 2*n)
	}
	if !reflect.DeepEqual(bin.Points(), nd.Points()) {
		t.Fatal("binary and NDJSON bodies of the same records decoded differently")
	}
}

// TestPushDecoderTimeNotInherited: a record that omits "time" gets
// time 0, not the previous record's time, from the reused scratch.
func TestPushDecoderTimeNotInherited(t *testing.T) {
	body := `{"metrics":[1,2],"attributes":{"device":"a","version":"x"},"time":42}
{"metrics":[3,4],"attributes":{"device":"b","version":"y"}}
`
	b := &core.Batch{}
	if err := NewPushDecoder(binSchema, encode.NewEncoder("device", "version")).Decode(strings.NewReader(body), false, b); err != nil {
		t.Fatal(err)
	}
	pts := b.Points()
	if len(pts) != 2 || pts[0].Time != 42 || pts[1].Time != 0 {
		t.Fatalf("times %+v, want 42 then 0", pts)
	}
}

// TestPushDecoderErrorsNameRecord: a schema error names the record it
// stopped at, and the records before it stay decoded.
func TestPushDecoderErrorsNameRecord(t *testing.T) {
	good := `{"metrics":[1,2],"attributes":{"device":"a","version":"x"}}` + "\n"
	for _, c := range []struct{ name, bad, want string }{
		{"metric count", `{"metrics":[1],"attributes":{"device":"a","version":"x"}}`, "record 3: 1 metrics, want 2"},
		{"missing attribute", `{"metrics":[1,2],"attributes":{"device":"a"}}`, `record 3: missing attribute "version"`},
		{"bad json", `{"metrics":[1,2],`, "record 3: "},
	} {
		b := &core.Batch{}
		err := NewPushDecoder(binSchema, encode.NewEncoder("device", "version")).Decode(strings.NewReader(good+good+c.bad), false, b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to contain %q", c.name, err, c.want)
		}
		if b.Len() != 2 {
			t.Errorf("%s: %d records decoded before the bad one, want 2", c.name, b.Len())
		}
	}
}

// TestPushDecoderBinaryAllocFree: a warm decoder decodes a binary body
// into a recycled batch with zero allocations.
func TestPushDecoderBinaryAllocFree(t *testing.T) {
	data := binStream(t, 1024)
	d := NewPushDecoder(binSchema, encode.NewEncoder("device", "version"))
	rd := bytes.NewReader(data)
	b := &core.Batch{}
	decode := func() {
		rd.Reset(data)
		b.Reset()
		if err := d.Decode(rd, true, b); err != nil || b.Len() != 1024 {
			t.Fatalf("decode: %v, %d rows", err, b.Len())
		}
	}
	decode() // warm: intern attrs, grow scratch and slabs
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Fatalf("warm binary decode: %v allocs per 1024-row body, want 0", allocs)
	}
}
