package experiments

import (
	"time"

	"macrobase/internal/baselines"
	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
)

// Table5 reproduces Table 5: wall-clock time of the explanation
// strategies on each complex query's labeled point set — MacroBase's
// cardinality-aware explainer (MB), separate FPGrowth (FP), data
// cubing (Cube), decision trees at depth 10 and 100 (DT10/DT100),
// Apriori (AP), and the Data X-Ray-style cover (XR). Runs exceeding
// the timeout report DNF, as in the paper's 20-minute cutoff.
func Table5(scale float64) []*Table {
	timeout := time.Duration(float64(20*time.Second) * scale)
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	t := &Table{
		ID:      "table5",
		Title:   "Explanation strategy runtime (seconds; DNF past " + timeout.String() + ")",
		Columns: []string{"query", "MB", "FP", "Cube", "DT10", "DT100", "AP", "XR"},
		Notes:   "paper: MB fastest everywhere; Cube/AP/XR DNF on wide attribute spaces (LC, MC, and XR on most)",
	}
	for _, ds := range gen.Catalog() {
		n := scaled(ds.Points/8, scale, 20_000)
		_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Simple: false, Seed: 5000})
		labeled, err := pipeline.ClassifyOneShot(pts, pipeline.Config{
			Dims: len(pts[0].Metrics), Seed: 13, TrainSampleSize: 10_000,
		})
		if err != nil {
			continue
		}
		cfg := explain.BatchConfig{MinSupport: 0.001, MinRiskRatio: 3}

		row := []string{QueryName(ds.Name, false)}
		row = append(row, timed(timeout, func(func() bool) { explain.ExplainBatch(labeled, cfg) }))
		row = append(row, timed(timeout, func(func() bool) { explain.ExplainSeparate(labeled, cfg) }))
		row = append(row, timed(timeout, func(c func() bool) {
			baselines.Cube(labeled, baselines.CubeConfig{MinSupport: cfg.MinSupport, MinRiskRatio: cfg.MinRiskRatio, Canceled: c})
		}))
		row = append(row, timed(timeout, func(c func() bool) {
			baselines.DecisionTree(labeled, baselines.DTreeConfig{MaxDepth: 10, Canceled: c})
		}))
		row = append(row, timed(timeout, func(c func() bool) {
			baselines.DecisionTree(labeled, baselines.DTreeConfig{MaxDepth: 100, Canceled: c})
		}))
		row = append(row, timed(timeout, func(c func() bool) {
			baselines.Apriori(outlierTxs(labeled), cfg.MinSupport*countOutliers(labeled), c)
		}))
		row = append(row, timed(timeout, func(c func() bool) {
			baselines.XRay(labeled, baselines.XRayConfig{Canceled: c})
		}))
		t.AddRow(row...)
	}
	return []*Table{t}
}

// timed runs f with a deadline-based cancel predicate and formats the
// elapsed seconds, or DNF when the cancel fired.
func timed(timeout time.Duration, f func(canceled func() bool)) string {
	start := time.Now()
	fired := false
	cancel := func() bool {
		if time.Since(start) > timeout {
			fired = true
			return true
		}
		return false
	}
	f(cancel)
	el := time.Since(start)
	if fired || el > timeout {
		return "DNF"
	}
	return f3(el.Seconds())
}

func outlierTxs(labeled []core.LabeledPoint) [][]int32 {
	var txs [][]int32
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			tx := make([]int32, len(labeled[i].Attrs))
			copy(tx, labeled[i].Attrs)
			txs = append(txs, tx)
		}
	}
	return txs
}

func countOutliers(labeled []core.LabeledPoint) float64 {
	n := 0.0
	for i := range labeled {
		if labeled[i].Label == core.Outlier {
			n++
		}
	}
	return n
}
