// Package experiments regenerates every table and figure of the
// paper's evaluation (§6, Appendix D) on the synthetic dataset
// analogs. Each experiment returns one or more Tables whose rows
// mirror what the paper reports (series for figures, cells for
// tables); cmd/mbbench runs them. Nothing yet checks the rows against
// the paper's numbers (see ROADMAP.md, "The paper's evaluation as
// assertions, not tables").
//
// Experiments accept a Scale factor that shrinks dataset sizes so the
// whole suite completes on a laptop; shapes (who wins, crossovers,
// scaling slopes) are preserved, absolute numbers are hardware-bound.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one reproduced result: a titled grid with named columns.
// The JSON form feeds cmd/mbbench's -json emitter, which CI archives
// so the perf trajectory accumulates machine-readable baselines.
type Table struct {
	ID      string     `json:"id"` // e.g. "fig3", "table2"
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Name  string
	Run   func(scale float64) []*Table
	Heavy bool // excluded from the quick suite
}

// All returns the registry of experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3", Name: "Estimator robustness under contamination (Figure 3)", Run: Fig3},
		{ID: "fig4", Name: "Explanation F1 vs label/measurement noise (Figure 4)", Run: Fig4, Heavy: true},
		{ID: "fig5", Name: "ADR adaptivity vs uniform/per-tuple reservoirs (Figure 5)", Run: Fig5},
		{ID: "table2", Name: "End-to-end throughput and explanations (Table 2)", Run: Table2, Heavy: true},
		{ID: "cardinality", Name: "Cardinality-aware explanation speedup (Section 6.3)", Run: Cardinality},
		{ID: "fig6", Name: "AMC vs SpaceSaving sketches (Figure 6)", Run: Fig6},
		{ID: "amcperiod", Name: "AMC maintenance-period ablation (Figure 6 text)", Run: AMCPeriod},
		{ID: "table3", Name: "Specialized kernel vs portable runtime (Table 3)", Run: Table3},
		{ID: "table4", Name: "DBSherlock anomaly localization (Table 4)", Run: Table4, Heavy: true},
		{ID: "table5", Name: "Explanation runtime comparison (Table 5)", Run: Table5, Heavy: true},
		{ID: "fig7", Name: "Outlier score distribution tails (Figure 7)", Run: Fig7},
		{ID: "fig8", Name: "Support and risk-ratio sensitivity (Figure 8)", Run: Fig8},
		{ID: "fig9", Name: "Training on samples (Figure 9)", Run: Fig9},
		{ID: "fig10", Name: "MCD throughput vs metric dimension (Figure 10)", Run: Fig10},
		{ID: "fig11", Name: "Naive shared-nothing scale-out (Figure 11)", Run: Fig11, Heavy: true},
		{ID: "mcps", Name: "M-CPS-tree vs CPS-tree (Appendix D)", Run: MCPSvsCPS},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// timeIt runs f and returns its wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// rate formats a points-per-second throughput like the paper
// ("1549.7K", "2.3M").
func rate(points int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	pps := float64(points) / d.Seconds()
	switch {
	case pps >= 1e6:
		return fmt.Sprintf("%.2fM", pps/1e6)
	case pps >= 1e3:
		return fmt.Sprintf("%.1fK", pps/1e3)
	default:
		return fmt.Sprintf("%.0f", pps)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// scaled returns max(lo, int(base*scale)).
func scaled(base int, scale float64, lo int) int {
	n := int(float64(base) * scale)
	if n < lo {
		n = lo
	}
	return n
}
