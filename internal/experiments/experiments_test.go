package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsRunAtTinyScale executes every registered
// experiment at a very small scale and checks that each produces
// non-empty, well-formed tables. This is the integration smoke test
// for the whole reproduction harness.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			scale := 0.002
			tables := e.Run(scale)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 {
					t.Errorf("%s: malformed table %+v", e.ID, tab)
				}
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("%s: row arity %d != %d columns", e.ID, len(row), len(tab.Columns))
					}
				}
				var buf bytes.Buffer
				tab.Fprint(&buf)
				if !strings.Contains(buf.String(), tab.Title) {
					t.Errorf("%s: Fprint missing title", e.ID)
				}
			}
		})
	}
}

// TestMCPSvsCPSItemCounts asserts Appendix D's structural claim on the
// mcps table: the CPS-tree stores every distinct attribute id of its
// stream, and the M-CPS-tree, which keeps only the AMC-frequent items,
// stores no more.
func TestMCPSvsCPSItemCounts(t *testing.T) {
	const scale = 0.002
	tab := MCPSvsCPS(scale)[0]
	cpsCol := slices.Index(tab.Columns, "cps_items")
	mcpsCol := slices.Index(tab.Columns, "mcps_items")
	if cpsCol < 0 || mcpsCol < 0 || len(tab.Rows) != len(mcpsDatasets) {
		t.Fatalf("mcps table has columns %v and %d rows", tab.Columns, len(tab.Rows))
	}
	for i, name := range mcpsDatasets {
		row := tab.Rows[i]
		distinct := map[int32]bool{}
		for _, p := range mcpsPoints(name, scale) {
			for _, a := range p.Attrs {
				distinct[a] = true
			}
		}
		cpsItems, err1 := strconv.Atoi(row[cpsCol])
		mcpsItems, err2 := strconv.Atoi(row[mcpsCol])
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: unreadable row %v", name, row)
		}
		if cpsItems != len(distinct) {
			t.Errorf("%s: cps_items %d, want the stream's %d distinct attribute ids", name, cpsItems, len(distinct))
		}
		if mcpsItems > cpsItems {
			t.Errorf("%s: mcps_items %d exceeds cps_items %d", name, mcpsItems, cpsItems)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestQueryNames(t *testing.T) {
	cases := map[string]string{
		QueryName("Liquor", true):    "LS",
		QueryName("Telecom", false):  "TC",
		QueryName("Campaign", true):  "ES",
		QueryName("Accidents", true): "AS",
		QueryName("Disburse", false): "FC",
		QueryName("CMT", false):      "MC",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("query name %q, want %q", got, want)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "long_column"}, Notes: "n"}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a  long_column", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRateFormatting(t *testing.T) {
	if got := rate(2_000_000, secs(1)); got != "2.00M" {
		t.Errorf("rate = %q", got)
	}
	if got := rate(1500, secs(1)); got != "1.5K" {
		t.Errorf("rate = %q", got)
	}
	if got := rate(10, secs(1)); got != "10" {
		t.Errorf("rate = %q", got)
	}
	if got := rate(10, 0); got != "inf" {
		t.Errorf("rate = %q", got)
	}
}

func secs(n int) time.Duration { return time.Duration(n) * time.Second }
