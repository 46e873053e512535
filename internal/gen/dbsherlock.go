package gen

import (
	"fmt"
	"math/rand/v2"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// AnomalyType enumerates the nine DBSherlock performance anomalies of
// Table 4.
type AnomalyType int

// The anomaly taxonomy from Yoon et al. (DBSherlock), as used in the
// paper's Table 4.
const (
	A1WorkloadSpike AnomalyType = iota + 1
	A2IOStress
	A3DBBackup
	A4TableRestore
	A5CPUStress
	A6FlushLog
	A7NetworkCongestion
	A8LockContention
	A9PoorQuery
)

// String returns the A<n> label used in Table 4.
func (a AnomalyType) String() string { return fmt.Sprintf("A%d", int(a)) }

// AllAnomalies lists the nine types in order.
func AllAnomalies() []AnomalyType {
	return []AnomalyType{
		A1WorkloadSpike, A2IOStress, A3DBBackup, A4TableRestore, A5CPUStress,
		A6FlushLog, A7NetworkCongestion, A8LockContention, A9PoorQuery,
	}
}

// anomalySignature maps each anomaly to the subset of performance
// counters it perturbs and the perturbation magnitude (in baseline
// standard deviations). Signatures overlap realistically: several
// anomalies touch CPU and I/O counters.
func anomalySignature(a AnomalyType) map[int]float64 {
	switch a {
	case A1WorkloadSpike:
		return map[int]float64{0: 8, 1: 8, 4: 5, 10: 4, 20: 3}
	case A2IOStress:
		return map[int]float64{2: 9, 3: 9, 11: 5, 21: 3}
	case A3DBBackup:
		return map[int]float64{2: 6, 3: 7, 12: 6, 22: 4}
	case A4TableRestore:
		return map[int]float64{3: 8, 5: 6, 13: 5, 23: 3}
	case A5CPUStress:
		return map[int]float64{0: 10, 4: 7, 14: 5, 24: 3}
	case A6FlushLog:
		return map[int]float64{2: 5, 6: 6, 15: 4, 25: 2.5}
	case A7NetworkCongestion:
		return map[int]float64{7: 9, 8: 8, 16: 5, 26: 3}
	case A8LockContention:
		return map[int]float64{9: 9, 5: 5, 17: 6, 27: 3}
	case A9PoorQuery:
		// The paper notes A9's correlated metrics are "substantially
		// different": its signature lives mostly outside the QS
		// feature set and is weaker.
		return map[int]float64{40: 4, 41: 3.5, 42: 3, 43: 2.5}
	default:
		return nil
	}
}

// QSMetricIndices is the fixed 15-counter feature set used by the
// one-query-for-everything QS experiments; it covers the common
// CPU/IO/network/lock signatures but not A9's tail counters.
func QSMetricIndices() []int {
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 20}
}

// QEMetricIndices returns the per-anomaly feature set used by the QE
// experiments (one query per anomaly type): the counters the anomaly
// actually perturbs.
func QEMetricIndices(a AnomalyType) []int {
	sig := anomalySignature(a)
	idx := make([]int, 0, len(sig))
	for i := range sig {
		idx = append(idx, i)
	}
	// Deterministic order.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

const (
	// clusterServers is the number of servers in a cluster (paper: 11).
	clusterServers = 11
	// clusterCounters is the total number of performance counters
	// (paper: 200+).
	clusterCounters = 200
)

// ClusterConfig parameterizes one DBSherlock-style experiment: a
// cluster of clusterServers servers running an OLTP workload, with one
// server exhibiting a given anomaly.
type ClusterConfig struct {
	// SamplesPerServer is the number of counter snapshots per server.
	Samples int
	// Anomaly is the performance degradation to inject.
	Anomaly AnomalyType
	// AnomalousServer indexes the degraded server (default 0).
	AnomalousServer int
	// Workload shifts baseline means so TPC-C and TPC-E clusters
	// differ ("tpcc" or "tpce").
	Workload string
	// Seed fixes the trace.
	Seed uint64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Samples == 0 {
		c.Samples = 500
	}
	if c.Workload == "" {
		c.Workload = "tpcc"
	}
	return c
}

// Cluster is one generated DBSherlock experiment.
type Cluster struct {
	Encoder *encode.Encoder
	// Points carry the full counter vector as metrics and the
	// hostname as the single attribute.
	Points []core.Point
	// AnomalousHost is the encoded hostname id of the degraded
	// server — Table 4's ground truth.
	AnomalousHost int32
	Hosts         []int32
}

// DBSherlockCluster generates one experiment trace: every server emits
// correlated counter snapshots around a per-workload baseline; the
// anomalous server's snapshots shift along the anomaly's signature
// counters for the second half of its samples (the labeled anomalous
// region).
func DBSherlockCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5bd1e995))
	enc := encode.NewEncoder("hostname")

	cl := &Cluster{Encoder: enc, Hosts: make([]int32, clusterServers)}
	for s := 0; s < clusterServers; s++ {
		cl.Hosts[s] = enc.Encode(0, fmt.Sprintf("%s-host%02d", cfg.Workload, s))
	}
	cl.AnomalousHost = cl.Hosts[cfg.AnomalousServer%clusterServers]

	// Per-counter baselines: workload-dependent means, unit-ish
	// variances, so TPC-C and TPC-E clusters are distinct
	// populations.
	means := make([]float64, clusterCounters)
	sds := make([]float64, clusterCounters)
	wseed := uint64(0x7c3)
	if cfg.Workload == "tpce" {
		wseed = 0x9e1
	}
	brng := rand.New(rand.NewPCG(wseed, wseed+1))
	for i := range means {
		means[i] = 50 + brng.Float64()*100
		sds[i] = 2 + brng.Float64()*6
	}
	sig := anomalySignature(cfg.Anomaly)

	cl.Points = make([]core.Point, 0, clusterServers*cfg.Samples)
	for s := 0; s < clusterServers; s++ {
		host := cl.Hosts[s]
		anomalous := host == cl.AnomalousHost
		for t := 0; t < cfg.Samples; t++ {
			m := make([]float64, clusterCounters)
			// Shared cluster-wide load factor induces correlation.
			load := rng.NormFloat64() * 0.5
			for c := 0; c < clusterCounters; c++ {
				m[c] = means[c] + (rng.NormFloat64()+load)*sds[c]
			}
			if anomalous && t >= cfg.Samples/2 {
				for c, mag := range sig {
					if c < clusterCounters {
						m[c] += mag * sds[c]
					}
				}
			}
			cl.Points = append(cl.Points, core.Point{
				Metrics: m,
				Attrs:   []int32{host},
				Time:    float64(t),
			})
		}
	}
	// Interleave servers in time order so streaming sees a mixed
	// cluster feed.
	rng.Shuffle(len(cl.Points), func(i, j int) {
		cl.Points[i], cl.Points[j] = cl.Points[j], cl.Points[i]
	})
	return cl
}

// ProjectMetrics returns a copy of pts with metrics restricted to the
// given counter indices — how the QS/QE queries select their feature
// sets.
func ProjectMetrics(pts []core.Point, idx []int) []core.Point {
	out := make([]core.Point, len(pts))
	for i := range pts {
		m := make([]float64, len(idx))
		for j, c := range idx {
			m[j] = pts[i].Metrics[c]
		}
		out[i] = core.Point{Metrics: m, Attrs: pts[i].Attrs, Time: pts[i].Time}
	}
	return out
}
