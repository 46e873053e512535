//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// queryResp is the part of mbserver's POST /query JSON the harness
// reads.
type queryResp struct {
	Points       int           `json:"points"`
	Outliers     int           `json:"outliers"`
	Explanations []explanation `json:"explanations"`
}

// runBatch measures batch_query: one-shot queries back to back on one
// connection, query i over stored file i mod batchFiles. Set-up is exec
// of mbserver, /healthz ok and a first, cold query answered.
func runBatch(bin string, in *inputs, seconds float64, tr *tracer, res *result) error {
	root := tr.begin(0, "workload:"+in.sp.name)
	defer tr.end(root)
	files := len(in.csvPaths)
	queries := make([][]byte, files)
	for f := range queries {
		queries[f] = in.batchJSON(f)
	}

	var srv *server
	var cl *client
	stop := func() {
		if srv != nil {
			cl.close()
			srv.stop()
		}
	}
	defer stop()
	for i := 0; i < setupRuns; i++ {
		stop()
		start := time.Now()
		s, err := startServer(bin)
		if err != nil {
			return err
		}
		srv, cl = s, newClient(&res.ops, tr)
		if _, _, err := cl.do(root, "query", "POST", srv.url+"/query", "application/json", queries[i%files]); err != nil {
			return fmt.Errorf("cold query: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}

	n, _ := in.sp.work(seconds)
	res.answers, res.points = n, n*in.sp.batchRows
	queryMs := make([]float64, 0, n)
	first := make([][]byte, files) // each file's first answer
	identical := true

	selfCPU0 := selfCPUSeconds()
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		body, d, err := cl.do(root, "query", "POST", srv.url+"/query", "application/json", queries[i%files])
		if err != nil {
			continue
		}
		queryMs = append(queryMs, d.Seconds()*1e3)
		if f := i % files; first[f] == nil {
			first[f] = append([]byte(nil), body...)
		} else {
			identical = identical && bytes.Equal(body, first[f])
		}
	}
	wall := time.Since(start).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	clientCPU := selfCPUSeconds() - selfCPU0
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}

	res.ops.check(identical && len(queryMs) == n, "repeated queries over one file did not all answer byte-identically")
	var answer queryResp
	respBytes := 0
	for f, body := range first[:min(n, files)] {
		answer = queryResp{}
		if err := json.Unmarshal(body, &answer); err != nil {
			return fmt.Errorf("query response: %w", err)
		}
		respBytes += len(body)
		res.ops.check(answer.Points == in.sp.batchRows, "conservation: server scanned %d rows of file %d, it has %d", answer.Points, f, in.sp.batchRows)
		share := plantedShare(in, answer.Explanations)
		res.ops.check(share >= 0.8, "file %d: only %.0f%% of the planted %s values are explained", f, share*100, in.attrs[0])
	}

	cpu := cpu1 - cpu0
	pts := float64(res.points)
	res.serverCPUNsPerPoint = cpu * 1e9 / pts
	res.e2e = map[string]float64{
		"setup_s":          median(res.setups),
		"points_per_s":     pts / wall,
		"points_per_cpu_s": ratio(pts, cpu),
		"answer_p50_ms":    median(queryMs),
		"peak_rss_mb":      rss,
	}
	// The streaming-only layers read zero here: batch_query never
	// touches the runner, routing, sketches or the poll cache.
	res.layer = map[string]float64{
		"mbserver.poll_p90_ms":   percentile(queryMs, 0.90),
		"mbserver.poll_max_ms":   percentile(queryMs, 1),
		"mbserver.poll_resp_kb":  ratio(float64(respBytes)/1024, float64(min(n, files))),
		"mbserver.cpu_util":      cpu / wall,
		"core.imbalance":         1,
		"classify.outlier_rate":  ratio(float64(answer.Outliers), float64(answer.Points)),
		"explain.n_explanations": float64(len(answer.Explanations)),
		"bench.client_cpu_s":     clientCPU,
	}
	return nil
}
