package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

const sampleCSV = `power,device,os,t
10.5,dev1,ios9,0
11.0,dev2,ios8,1
99.9,dev1,ios9,2
`

func TestCSVSourceReads(t *testing.T) {
	enc := encode.NewEncoder("device", "os")
	src, err := NewCSVSource(strings.NewReader(sampleCSV), Schema{
		Metrics:    []string{"power"},
		Attributes: []string{"device", "os"},
		TimeColumn: "t",
	}, enc)
	if err != nil {
		t.Fatal(err)
	}
	var pts []core.Point
	for {
		b, err := src.Next(2)
		if err == core.ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Copy: the source reuses its buffer.
		pts = append(pts, append([]core.Point(nil), b...)...)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[2].Metrics[0] != 99.9 || pts[2].Time != 2 {
		t.Errorf("point = %+v", pts[2])
	}
	if pts[0].Attrs[0] != pts[2].Attrs[0] {
		t.Error("same device encoded differently")
	}
	if enc.Decode(pts[1].Attrs[1]).Value != "ios8" {
		t.Error("attribute decode mismatch")
	}
	if src.Encoder() != enc {
		t.Error("encoder accessor broken")
	}
}

func TestCSVSourceErrors(t *testing.T) {
	enc := encode.NewEncoder("device")
	if _, err := NewCSVSource(strings.NewReader(sampleCSV), Schema{
		Metrics: []string{"nope"}, Attributes: []string{"device"},
	}, enc); err == nil {
		t.Error("missing metric column accepted")
	}
	if _, err := NewCSVSource(strings.NewReader(sampleCSV), Schema{
		Metrics: []string{"power"}, Attributes: []string{"nope"},
	}, enc); err == nil {
		t.Error("missing attribute column accepted")
	}
	if _, err := NewCSVSource(strings.NewReader(sampleCSV), Schema{
		Metrics: []string{"power"}, Attributes: []string{"device"}, TimeColumn: "nope",
	}, enc); err == nil {
		t.Error("missing time column accepted")
	}
	// Unparsable metric surfaces as an error, not silent skip.
	bad := "power,device\nxyz,dev1\n"
	src, err := NewCSVSource(strings.NewReader(bad), Schema{Metrics: []string{"power"}, Attributes: []string{"device"}}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(10); err == nil || err == core.ErrEndOfStream {
		t.Errorf("bad metric row not rejected: %v", err)
	}
	// So does a NaN or infinite metric or time, on both read paths.
	for _, tc := range []struct{ name, data string }{
		{"NaN metric", "power,device,t\n1,dev1,0\nNaN,dev1,1\n"},
		{"+Inf metric", "power,device,t\n1,dev1,0\n+Inf,dev1,1\n"},
		{"-Inf time", "power,device,t\n1,dev1,0\n2,dev1,-inf\n"},
	} {
		schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}, TimeColumn: "t"}
		src, err := NewCSVSource(strings.NewReader(tc.data), schema, enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(10); !errors.Is(err, errNonFinite) || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%s via Next: %v, want a row 2 non-finite error", tc.name, err)
		}
		src, err = NewCSVSource(strings.NewReader(tc.data), schema, enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.NextBatchInto(context.Background(), &core.Batch{}, 10); !errors.Is(err, errNonFinite) || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%s via NextBatchInto: %v, want a row 2 non-finite error", tc.name, err)
		}
	}
}

// TestCSVBadRowsMatchErrBadRow: every error a malformed row causes
// matches ErrBadRow and names the row and the file line it starts on
// (the header is line 1; a quoted field may span lines), on every read
// path and latched; a failed read does not match.
func TestCSVBadRowsMatchErrBadRow(t *testing.T) {
	enc := encode.NewEncoder("device")
	schema := Schema{Metrics: []string{"power"}, Attributes: []string{"device"}, TimeColumn: "t"}
	reads := map[string]func(*CSVSource) error{
		"Next": func(s *CSVSource) error { _, err := s.Next(10); return err },
		"NextBatchInto": func(s *CSVSource) error {
			_, err := s.NextBatchInto(context.Background(), &core.Batch{}, 10)
			return err
		},
		"ReadAll": func(s *CSVSource) error { _, err := s.ReadAll(); return err },
	}
	for _, tc := range []struct{ name, data, names string }{
		{"unparsable metric", "power,device,t\n1,dev1,0\nxyz,dev1,1\n", "row 2"},
		{"unparsable time", "power,device,t\n1,dev1,0\n2,dev1,noon\n", "row 2"},
		{"NaN metric", "power,device,t\n1,dev1,0\nNaN,dev1,1\n", "row 2"},
		{"Inf time", "power,device,t\n1,dev1,0\n2,dev1,Inf\n", "row 2"},
		{"missing field", "power,device,t\n1,dev1,0\n2,dev1\n", "line 3"},
		{"bare quote", "power,device,t\n1,dev1,0\n2,de\"v1,1\n", "line 3"},
		{"after a quoted newline", "power,device,t\n1,\"dev\n1\",0\nxyz,dev1,1\n", "row 2 (line 4)"},
	} {
		for path, read := range reads {
			src, err := NewCSVSource(strings.NewReader(tc.data), schema, enc)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := read(src); !errors.Is(err, ErrBadRow) || !strings.Contains(err.Error(), tc.names) {
					t.Errorf("%s via %s, read %d: %v, want an ErrBadRow naming %s", tc.name, path, i+1, err, tc.names)
				}
			}
		}
	}
	src, err := NewCSVSource(io.MultiReader(strings.NewReader("power,device,t\n1,dev1,0\n"), iotest.ErrReader(io.ErrClosedPipe)), schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := reads["Next"](src); err == nil || errors.Is(err, ErrBadRow) {
		t.Errorf("a failed read: %v, want an error that is not ErrBadRow", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	enc := encode.NewEncoder("device", "os")
	pts := []core.Point{
		{Metrics: []float64{1.5}, Attrs: enc.EncodeInto(make([]int32, 2), []string{"d1", "o1"}), Time: 10},
		{Metrics: []float64{-2}, Attrs: enc.EncodeInto(make([]int32, 2), []string{"d2", "o2"}), Time: 20},
	}
	schema := Schema{Metrics: []string{"m"}, Attributes: []string{"device", "os"}, TimeColumn: "t"}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, schema, enc, pts); err != nil {
		t.Fatal(err)
	}
	enc2 := encode.NewEncoder("device", "os")
	src, err := NewCSVSource(&buf, schema, enc2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := src.Next(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Metrics[0] != 1.5 || got[1].Time != 20 {
		t.Fatalf("round trip = %+v", got)
	}
	if enc2.Decode(got[1].Attrs[0]).Value != "d2" {
		t.Error("attribute round trip failed")
	}
}

func TestQueryConfig(t *testing.T) {
	js := `{"input":"x.csv","metrics":["m"],"attributes":["a"],"streaming":true}`
	c, err := ReadQueryConfig(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if c.Percentile != 0.99 || c.MinSupport != 0.001 || c.MinRiskRatio != 3 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.DecayEveryPoints != 100_000 || c.ReservoirSize != 10_000 {
		t.Errorf("streaming defaults not applied: %+v", c)
	}
	sch := c.Schema()
	if len(sch.Metrics) != 1 || sch.Metrics[0] != "m" {
		t.Errorf("schema = %+v", sch)
	}

	for _, bad := range []string{
		`{"metrics":["m"],"attributes":["a"]}`,                                              // no input
		`{"input":"x","attributes":["a"]}`,                                                  // no metrics
		`{"input":"x","metrics":["m"]}`,                                                     // no attributes
		`{"input":"x","metrics":["m"],"attributes":["a"],"percentile":2}`,                   // bad percentile
		`{"input":"x","metrics":["m"],"attributes":["a"],"bogus":1}`,                        // unknown field
		`{"input":"x","metrics":["m"],"attributes":["a"],"reservoirSize":1048577}`,          // above maxReservoirSize
		`{"input":"x","metrics":["m"],"attributes":["a"],"reservoirSize":1000000000000000}`, // would not fit in memory
		`{"input":"x","metrics":["m"],"attributes":["a"],"minSupport":5}`,                   // support above 1
		`{"input":"x","metrics":["m"],"attributes":["a"],"minSupport":-0.5}`,                // negative support
		`{"input":"x","metrics":["m"],"attributes":["a"],"minRiskRatio":-1}`,                // negative risk ratio
		`{not json`,
	} {
		if _, err := ReadQueryConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted invalid config %s", bad)
		}
	}
	atBounds := `{"input":"x","metrics":["m"],"attributes":["a"],"reservoirSize":1048576,"minSupport":1,"minRiskRatio":0.5}`
	if _, err := ReadQueryConfig(strings.NewReader(atBounds)); err != nil {
		t.Errorf("rejected a config at the bounds: %v", err)
	}
}
