package experiments

import (
	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
)

// Table3 reproduces the spirit of Table 3: the paper compared its
// portable Java operator runtime against a hand-optimized C++ rewrite
// of the simple queries (5-24x gaps). Here both implementations are
// Go, so the measured gap isolates the abstraction cost of the
// portable dataflow — interface dispatch, Point boxing, batch
// plumbing — against the fused monomorphic kernel
// (FastSimpleQuery).
func Table3(scale float64) []*Table {
	t := &Table{
		ID:      "table3",
		Title:   "Hand-fused kernel vs portable operator runtime (simple queries)",
		Columns: []string{"query", "portable(pts/s)", "fused(pts/s)", "speedup"},
		Notes:   "paper: hand-optimized C++ 5.2-24.1x over the Java prototype; same direction expected, smaller gap (both Go)",
	}
	for _, ds := range gen.Catalog() {
		n := scaled(ds.Points/2, scale, 50_000)
		_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Simple: true, Seed: 3000})
		metrics, attrs := Flatten(pts)

		dPortable := timeIt(func() {
			_, _ = pipeline.RunOneShot(pts, pipeline.Config{Dims: 1, Seed: 5})
		})
		dFused := timeIt(func() {
			_ = FastSimpleQuery(metrics, attrs, 0.99, 0.001, 3)
		})
		speedup := dPortable.Seconds() / dFused.Seconds()
		t.AddRow(QueryName(ds.Name, true), rate(n, dPortable), rate(n, dFused), f2(speedup))
	}
	return []*Table{t}
}
