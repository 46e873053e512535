package experiments

import (
	"sort"

	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
)

// rankHosts runs MDP over a DBSherlock cluster projected onto the
// given metric subset and returns hostnames ranked by explanation
// risk ratio — the "which server is anomalous" query of Table 4.
func rankHosts(cl *gen.Cluster, metricIdx []int, seed uint64) []int32 {
	pts := gen.ProjectMetrics(cl.Points, metricIdx)
	res, err := pipeline.RunOneShot(pts, pipeline.Config{
		Dims:            len(metricIdx),
		MinSupport:      0.01,
		MinRiskRatio:    1.5,
		Percentile:      0.95,
		TrainSampleSize: 3000,
		Seed:            seed,
	})
	if err != nil {
		return nil
	}
	// Aggregate per-host risk (explanations are single hostname
	// attributes here since hosts are the only attribute).
	type hostScore struct {
		host int32
		rr   float64
	}
	var ranked []hostScore
	seen := map[int32]bool{}
	for _, e := range res.Explanations {
		for _, id := range e.ItemIDs {
			if !seen[id] {
				seen[id] = true
				ranked = append(ranked, hostScore{id, e.RiskRatio})
			}
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].rr > ranked[j].rr })
	out := make([]int32, len(ranked))
	for i, h := range ranked {
		out[i] = h.host
	}
	return out
}

func topK(ranked []int32, truth int32, k int) bool {
	for i := 0; i < len(ranked) && i < k; i++ {
		if ranked[i] == truth {
			return true
		}
	}
	return false
}

// Table4 reproduces Table 4: MDP's ability to localize the anomalous
// server in DBSherlock-style clusters, per anomaly type (A1-A9), for
// two query styles — QS (one fixed 15-metric query for every anomaly)
// and QE (a per-anomaly metric set) — on TPC-C- and TPC-E-like
// workloads. The paper's shape: QS is strong except on A9 (whose
// signature lies outside the shared feature set); QE reaches
// (near-)perfect top-3.
func Table4(scale float64) []*Table {
	clusters := 3
	samples := scaled(400, scale, 120)
	var tables []*Table
	for _, workload := range []string{"tpcc", "tpce"} {
		// QS and QE query the same clusters: generate each one once.
		cls := make([][]*gen.Cluster, len(gen.AllAnomalies()))
		for a, anomaly := range gen.AllAnomalies() {
			for c := 0; c < clusters; c++ {
				cls[a] = append(cls[a], gen.DBSherlockCluster(gen.ClusterConfig{
					Samples:  samples,
					Anomaly:  anomaly,
					Workload: workload,
					Seed:     uint64(9000 + 100*int(anomaly) + c),
				}))
			}
		}
		for _, mode := range []string{"QS", "QE"} {
			t := &Table{
				ID:      "table4",
				Title:   "DBSherlock localization — " + workload + " / " + mode,
				Columns: []string{"anomaly", "top1", "top3", "clusters"},
				Notes:   "paper: QS top-1 ~86%, A9 fails under QS; QE top-3 100%",
			}
			var top1All, top3All, total int
			for a, anomaly := range gen.AllAnomalies() {
				top1, top3 := 0, 0
				for c, cl := range cls[a] {
					var idx []int
					if mode == "QS" {
						idx = gen.QSMetricIndices()
					} else {
						idx = gen.QEMetricIndices(anomaly)
					}
					ranked := rankHosts(cl, idx, uint64(77+c))
					if topK(ranked, cl.AnomalousHost, 1) {
						top1++
					}
					if topK(ranked, cl.AnomalousHost, 3) {
						top3++
					}
				}
				top1All += top1
				top3All += top3
				total += clusters
				t.AddRow(anomaly.String(), frac(top1, clusters), frac(top3, clusters), itoa(clusters))
			}
			t.AddRow("overall", frac(top1All, total), frac(top3All, total), itoa(total))
			tables = append(tables, t)
		}
	}
	return tables
}

func frac(hit, total int) string {
	if total == 0 {
		return "n/a"
	}
	return itoa(hit) + "/" + itoa(total)
}
