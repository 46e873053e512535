package experiments

import (
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
)

// table2Points returns the scaled point count for a dataset analog.
func table2Points(d gen.Dataset, scale float64) int {
	return scaled(d.Points, scale, 20_000)
}

// queryLetters maps dataset names to the paper's query prefixes
// (Table 2: L, T, E, A, F, M).
var queryLetters = map[string]string{
	"Liquor": "L", "Telecom": "T", "Campaign": "E",
	"Accidents": "A", "Disburse": "F", "CMT": "M",
}

// QueryName returns the paper's query label, e.g. ("CMT", false) ->
// "MC".
func QueryName(dataset string, simple bool) string {
	l, ok := queryLetters[dataset]
	if !ok {
		l = dataset[:1]
	}
	if simple {
		return l + "S"
	}
	return l + "C"
}

// Table2 reproduces Table 2: for each dataset analog and query shape
// (simple XS / complex XC), the throughput of one-shot and
// exponentially weighted streaming execution with and without
// explanation, the number of explanations each produces, and their
// Jaccard similarity.
func Table2(scale float64) []*Table {
	t := &Table{
		ID:    "table2",
		Title: "Throughput and explanations, one-shot vs exponentially weighted streaming",
		Columns: []string{
			"query", "points",
			"oneshot_noexp", "ews_noexp", "oneshot_exp", "ews_exp",
			"#exp_oneshot", "#exp_ews", "jaccard",
		},
		Notes: "paper: 147K-2.5M pts/s; one-shot faster on simple queries, EWS trains on samples; explanation adds ~22%",
	}
	for _, ds := range gen.Catalog() {
		for _, simple := range []bool{true, false} {
			name := QueryName(ds.Name, simple)
			n := table2Points(ds, scale)
			_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Simple: simple, Seed: 1000})
			dims := len(pts[0].Metrics)
			cfg := pipeline.Config{
				Dims:            dims,
				MinSupport:      0.001,
				Seed:            7,
				TrainSampleSize: 10_000,
				RetrainEvery:    50_000,
			}

			// One-shot without explanation: classify stage only.
			var labeled []core.LabeledPoint
			dOneNo := timeIt(func() {
				var err error
				labeled, err = pipeline.ClassifyOneShot(pts, cfg)
				if err != nil {
					labeled = nil
				}
			})
			if labeled == nil {
				continue
			}
			// One-shot with explanation.
			var oneRes *pipeline.Result
			dOne := timeIt(func() { oneRes, _ = pipeline.RunOneShot(pts, cfg) })

			// EWS without explanation: a one-shard engine with the
			// classifier only.
			dEwsNo := timeIt(func() {
				r := core.StreamRunner{
					Partitioned: core.NewSliceSource(pts),
					NewShard: func(int) core.ShardPipeline {
						return core.ShardPipeline{Classifier: classify.NewStreaming(classify.StreamingConfig{
							Dims: dims, Seed: 7, RetrainEvery: cfg.RetrainEvery,
						}, nil)}
					},
					DecayEvery: 100_000,
				}
				_, _ = r.Run()
			})
			// EWS with explanation.
			var ewsRes *pipeline.Result
			dEws := timeIt(func() {
				ewsRes, _ = pipeline.RunStreaming(core.NewSliceSource(pts), cfg)
			})
			if oneRes == nil || ewsRes == nil {
				continue
			}
			t.AddRow(
				name, itoa(n),
				rate(n, dOneNo), rate(n, dEwsNo), rate(n, dOne), rate(n, dEws),
				itoa(len(oneRes.Explanations)), itoa(len(ewsRes.Explanations)),
				f2(explain.Jaccard(oneRes.Explanations, ewsRes.Explanations)),
			)
		}
	}
	return []*Table{t}
}

// Cardinality reproduces the §6.3 comparison: MacroBase's
// cardinality-aware joint explanation vs running FPGrowth separately
// over inliers and outliers (paper: average 3.2x speedup).
func Cardinality(scale float64) []*Table {
	t := &Table{
		ID:      "cardinality",
		Title:   "Cardinality-aware explanation vs separate FPGrowth",
		Columns: []string{"query", "macrobase(s)", "separate(s)", "speedup"},
		Notes:   "paper: 0.22-1.4s for MacroBase; separate mining 3.2x slower on average",
	}
	var totalSpeedup float64
	var rows int
	for _, ds := range gen.Catalog() {
		n := scaled(ds.Points/4, scale, 20_000)
		_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Simple: false, Seed: 2000})
		dims := len(pts[0].Metrics)
		labeled, err := pipeline.ClassifyOneShot(pts, pipeline.Config{
			Dims: dims, Seed: 11, TrainSampleSize: 10_000,
		})
		if err != nil {
			continue
		}
		cfg := explain.BatchConfig{MinSupport: 0.001, MinRiskRatio: 3}
		var mb, sep time.Duration
		mb = timeIt(func() { explain.ExplainBatch(labeled, cfg) })
		sep = timeIt(func() { explain.ExplainSeparate(labeled, cfg) })
		speedup := sep.Seconds() / mb.Seconds()
		totalSpeedup += speedup
		rows++
		t.AddRow(ds.Name, f3(mb.Seconds()), f3(sep.Seconds()), f2(speedup))
	}
	if rows > 0 {
		t.AddRow("average", "", "", f2(totalSpeedup/float64(rows)))
	}
	return []*Table{t}
}
