package main

// Micro-benchmark mode (-bench) and the regression comparator
// (-compare): mbbench runs the explanation, ingest and model-fit
// hot-path kernels through testing.Benchmark, embeds ns/op + allocs/op
// in the -json report, and -compare fails the process (exit 1) when any
// kernel inflates more than 2x in ns/op or allocs/op against a committed
// baseline report (BENCH_PR32.json). CI runs the comparator on every
// push, so a hot path can only regress past 2x by committing a new
// baseline.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/explain"
	"macrobase/internal/fptree"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
	"macrobase/internal/mcd"
	"macrobase/internal/pipeline"
)

// benchResult is one kernel's measurement in the -json report.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func runKernel(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	res := benchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	fmt.Printf("  %-34s %12.0f ns/op %8d B/op %6d allocs/op\n",
		res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

// benchLabeledStream builds the deterministic labeled CMT stream the
// explanation kernels run over (top-3% of metric[0] are outliers, so
// no trainable classifier is involved).
func benchLabeledStream(n int) [][]core.LabeledPoint {
	ds, err := gen.DatasetByName("CMT")
	if err != nil {
		panic(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Seed: 42})
	scores := make([]float64, len(pts))
	for i := range pts {
		scores[i] = pts[i].Metrics[0]
	}
	sort.Float64s(scores)
	cut := scores[int(float64(len(scores))*0.97)]
	labeled := make([]core.LabeledPoint, len(pts))
	for i := range pts {
		label := core.Inlier
		if pts[i].Metrics[0] > cut {
			label = core.Outlier
		}
		labeled[i] = core.LabeledPoint{Point: pts[i], Score: pts[i].Metrics[0], Label: label}
	}
	const batch = 1024
	var batches [][]core.LabeledPoint
	for i := 0; i < len(labeled); i += batch {
		end := min(i+batch, len(labeled))
		batches = append(batches, labeled[i:end])
	}
	return batches
}

// benchExplainCfg is the explainer configuration of the explanation
// kernels.
var benchExplainCfg = explain.StreamingConfig{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05}

// warmExplainer replays the whole stream (with decay ticks) into a
// fresh explainer.
func warmExplainer(cfg explain.StreamingConfig, batches [][]core.LabeledPoint) *explain.Streaming {
	s := explain.NewStreaming(cfg)
	for i, bt := range batches {
		s.Consume(bt)
		if (i+1)%64 == 0 {
			s.Decay()
		}
	}
	return s
}

// microBenchmarks measures the explanation hot paths: the per-point
// consume path, the poll after a decay tick (single and merged), the
// raw FPGrowth mining kernel, and the FastMCD fit.
func microBenchmarks() []benchResult {
	fmt.Println("### micro — explanation hot-path kernels (ns/op, allocs/op)")
	batches := benchLabeledStream(60_000)

	// poll builds 4 warmed shard explainers (the stream dealt
	// round-robin, shared decay clock) and measures one merged poll per
	// op, the session's: a Clone of each shard, then MergeStreamingInto
	// (shard merge of sketches and outlier tree, the inlier trees
	// borrowed) + FPGrowth mine + canonical recount + an inlier count
	// per combination summed over the four shards' trees.
	poll := func(b *testing.B) {
		shards := make([]*explain.Streaming, 4)
		for i := range shards {
			shards[i] = explain.NewStreaming(benchExplainCfg)
		}
		for i, bt := range batches {
			shards[i%len(shards)].Consume(bt)
			if (i+1)%64 == 0 {
				for _, sh := range shards {
					sh.Decay()
				}
			}
		}
		owned := make([]*explain.Streaming, len(shards))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, sh := range shards {
				owned[j] = sh.Clone()
			}
			explain.MergeStreamingInto(owned)
		}
	}

	// rebalKernel is the skew-adaptive routing workload: a Zipf stream
	// whose hot devices all hash to shard 0 of 4, pushed by 3 producers
	// through the full pipeline. One op is one 1024-point batch; the
	// pinned twin (DisableRebalance) measures the same stream with the
	// routing table frozen at the static hash, and the final hot-shard
	// load share (hottest shard's fraction of all points) is captured so
	// the on/off comparison covers balance as well as ns/point. The win
	// is a wall-clock one — the hot shard stops being the convoy — so it
	// needs >= 4 real cores to show up in ns/op; the load-share spread
	// is visible anywhere.
	rebalShare := map[bool]float64{}
	rebalKernel := func(pinned bool) func(b *testing.B) {
		return func(b *testing.B) {
			d := gen.SkewedDevices(gen.SkewConfig{Points: 64_512, PinShards: 4, Seed: 42})
			const batchPts = 1024
			var batches [][]core.Point
			for off := 0; off+batchPts <= len(d.Points); off += batchPts {
				batches = append(batches, d.Points[off:off+batchPts])
			}
			const producers = 3
			src := ingest.NewPush(producers, 4)
			sess, err := pipeline.StartPartitionedStream(src, pipeline.Config{
				Dims: 1, MinSupport: 0.005, DecayEveryPoints: 100_000,
				CoordinateEvery: 4096, DisableRebalance: pinned, Seed: 7,
			}, 4)
			if err != nil {
				panic(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pr := src.Producer(p)
					ctx := context.Background()
					for i := p; i < b.N; i += producers {
						if err := pr.Send(ctx, batches[i%len(batches)]); err != nil {
							return
						}
					}
					pr.Close()
				}(p)
			}
			wg.Wait()
			final, err := sess.Stop()
			if err != nil {
				panic(err)
			}
			b.StopTimer()
			if sb := final.Shards; sb != nil {
				var hot, total int64
				for _, s := range sb.PerShard {
					total += int64(s.Points)
					if int64(s.Points) > hot {
						hot = int64(s.Points)
					}
				}
				if total > 0 {
					rebalShare[pinned] = float64(hot) / float64(total)
				}
			}
		}
	}

	results := []benchResult{
		runKernel("StreamingExplain/consume", func(b *testing.B) {
			s := explain.NewStreaming(benchExplainCfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Consume(batches[i%len(batches)])
				if (i+1)%64 == 0 {
					s.Decay()
				}
			}
		}),
		// The poll after a decay tick, which is what the end-to-end
		// workloads' polls are: a full mine, recount and rank. Each op
		// (untimed) decays the explainer first, and every 64 ops it is
		// reset (untimed) to the same warm state, so per-op cost reflects
		// the 60K-point working set, not b.N-dependent decay.
		runKernel("StreamingExplain/poll-full", func(b *testing.B) {
			base := warmExplainer(benchExplainCfg, batches)
			var s *explain.Streaming
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%64 == 0 {
					s = base.Clone()
				}
				s.Decay()
				b.StartTimer()
				s.Explanations()
			}
		}),
		// Merged-poll kernel: snapshot clones of four shards, merged and
		// answered on the polling goroutine.
		runKernel("Poll/p3s4", poll),
		runKernel("PushIngest/p3s4", func(b *testing.B) {
			// Ingest-throughput kernel for the push-partitioned path:
			// 3 concurrent producers feed a resident 4-shard session
			// through ingest.Push; one op is one 1024-point batch
			// pushed through the full pipeline (route + classify +
			// explain), timed until the stream drains.
			d := gen.Devices(gen.DeviceConfig{Points: 64_512, Devices: 400, Seed: 42})
			const batchPts = 1024
			var batches [][]core.Point
			for off := 0; off+batchPts <= len(d.Points); off += batchPts {
				batches = append(batches, d.Points[off:off+batchPts])
			}
			const producers = 3
			src := ingest.NewPush(producers, 4)
			sess, err := pipeline.StartPartitionedStream(src, pipeline.Config{
				Dims: 1, MinSupport: 0.005, DecayEveryPoints: 100_000, Seed: 7,
			}, 4)
			if err != nil {
				panic(err)
			}
			// Warm the resident session past its growth phase (tree
			// slabs, sketch tables, ack windows all reach steady size)
			// so the timed section measures the per-batch path, not
			// amortized startup growth.
			warmCtx := context.Background()
			warmPr := src.Producer(0)
			for i := 0; i < 2*len(batches); i++ {
				if err := warmPr.Send(warmCtx, batches[i%len(batches)]); err != nil {
					panic(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pr := src.Producer(p)
					ctx := context.Background()
					for i := p; i < b.N; i += producers {
						if err := pr.Send(ctx, batches[i%len(batches)]); err != nil {
							return
						}
					}
					pr.Close()
				}(p)
			}
			wg.Wait()
			// Closing every producer ends the stream naturally; Stop
			// then just waits for the drain — part of the measured
			// ingest cost.
			if _, err := sess.Stop(); err != nil {
				panic(err)
			}
			b.StopTimer()
		}),
		runKernel("Coordinate/p3s4", func(b *testing.B) {
			// Coordination-overhead kernel: the PushIngest workload
			// with an aggressive CoordinateEvery (a threshold round
			// every 4 batches of stream progress, ~6x the default
			// rate), so the collect/merge/apply round-trip cost shows
			// up in ns/op instead of amortizing to noise. Compare
			// against PushIngest/p3s4 (default cadence) for the
			// per-batch cost of coordination itself.
			d := gen.Devices(gen.DeviceConfig{Points: 64_512, Devices: 400, Seed: 42})
			const batchPts = 1024
			var batches [][]core.Point
			for off := 0; off+batchPts <= len(d.Points); off += batchPts {
				batches = append(batches, d.Points[off:off+batchPts])
			}
			const producers = 3
			src := ingest.NewPush(producers, 4)
			sess, err := pipeline.StartPartitionedStream(src, pipeline.Config{
				Dims: 1, MinSupport: 0.005, DecayEveryPoints: 100_000,
				CoordinateEvery: 4096, Seed: 7,
			}, 4)
			if err != nil {
				panic(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pr := src.Producer(p)
					ctx := context.Background()
					for i := p; i < b.N; i += producers {
						if err := pr.Send(ctx, batches[i%len(batches)]); err != nil {
							return
						}
					}
					pr.Close()
				}(p)
			}
			wg.Wait()
			if _, err := sess.Stop(); err != nil {
				panic(err)
			}
			b.StopTimer()
		}),
		runKernel("Rebalance/p3s4", rebalKernel(false)),
		runKernel("Rebalance/p3s4-pinned", rebalKernel(true)),
		runKernel("Route/p3s4", func(b *testing.B) {
			// Pure data-plane kernel: 3 producers feed a 4-shard
			// StreamRunner whose shards have no classifier or explainer,
			// so one op is one 1024-point batch through producer enqueue,
			// partition read, bucket routing through the live routing
			// table into pooled per-shard slabs, and worker consumption —
			// the ingest plane with the analytics stripped out. The
			// Rebalance policy is set so the 0-allocs/op gate guards the
			// routed scatter path (table load + bucket counter + epoch
			// swaps), not the legacy direct-hash path.
			d := gen.Devices(gen.DeviceConfig{Points: 64_512, Devices: 400, Seed: 42})
			const batchPts = 1024
			var batches [][]core.Point
			for off := 0; off+batchPts <= len(d.Points); off += batchPts {
				batches = append(batches, d.Points[off:off+batchPts])
			}
			const producers = 3
			src := ingest.NewPush(producers, 4)
			sr := &core.StreamRunner{
				Partitioned: src,
				Shards:      4,
				NewShard:    func(int) core.ShardPipeline { return core.ShardPipeline{} },
				BatchSize:   batchPts,
				Rebalance:   &core.RebalancePolicy{Every: 8192},
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pr := src.Producer(p)
					ctx := context.Background()
					for i := p; i < b.N; i += producers {
						if err := pr.Send(ctx, batches[i%len(batches)]); err != nil {
							return
						}
					}
					pr.Close()
				}(p)
			}
			if _, err := sr.Run(); err != nil {
				panic(err)
			}
			wg.Wait()
			b.StopTimer()
		}),
		runKernel("PushIngest/binary-decode", func(b *testing.B) {
			// Binary wire-format decode kernel: one op decodes a
			// 1024-row "MBR1" buffer into a recycled batch through a
			// warm encoder — the per-request parse cost of mbserver's
			// binary push path, allocation-free in steady state.
			const rows = 1024
			var buf bytes.Buffer
			w := ingest.NewBinaryRowWriter(&buf)
			for i := 0; i < rows; i++ {
				err := w.WriteRow(
					[]float64{10 + float64(i%40)},
					[]string{fmt.Sprintf("dev%d", i%400), fmt.Sprintf("v%d", i%3)},
					0,
				)
				if err != nil {
					panic(err)
				}
			}
			data := buf.Bytes()
			schema := ingest.Schema{Metrics: []string{"power"}, Attributes: []string{"device", "version"}}
			enc := encode.NewEncoder("device", "version")
			rd := bytes.NewReader(data)
			dec := ingest.NewBinaryRowReader(rd, schema, enc)
			batch := &core.Batch{}
			decode := func() {
				rd.Reset(data)
				dec.Reset(rd)
				batch.Reset()
				for {
					if _, err := dec.ReadInto(batch, 4096); err == io.EOF {
						break
					} else if err != nil {
						panic(err)
					}
				}
				if batch.Len() != rows {
					panic("short binary decode")
				}
			}
			decode() // warm: intern attrs, size scratch and slabs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decode()
			}
		}),
		runKernel("FPGrowthMine", func(b *testing.B) {
			txs := make([][]int32, 0, 20_000)
			for _, bt := range batches {
				for i := range bt {
					txs = append(txs, bt[i].Attrs)
					if len(txs) == cap(txs) {
						break
					}
				}
				if len(txs) == cap(txs) {
					break
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree := fptree.Build(txs, nil, 20)
				tree.Mine(20, 0)
			}
		}),
	}
	// One default-config FastMCD fit over the metrics of the end-to-end
	// workloads' datasets: n10k is a shard's reservoir refit (p7
	// firehose_xc, p2 poll_drift), n40k the batch_query training sample.
	for _, k := range []struct {
		name, dataset string
		n             int
	}{{"MCDFit/n10k-p7", "CMT", 10_000}, {"MCDFit/n10k-p2", "Liquor", 10_000}, {"MCDFit/n40k-p7", "CMT", 40_000}} {
		ds, err := gen.DatasetByName(k.dataset)
		if err != nil {
			panic(err)
		}
		_, pts, _ := ds.Generate(gen.GenerateConfig{Points: k.n, Seed: 42})
		rows := make([][]float64, len(pts))
		for i := range pts {
			rows[i] = pts[i].Metrics
		}
		results = append(results, runKernel(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcd.Fit(rows, mcd.Config{}); err != nil {
					panic(err)
				}
			}
		}))
	}
	if on, ok := rebalShare[false]; ok {
		fmt.Printf("  %-34s hot-shard load share %.3f rebalanced vs %.3f pinned (0.25 = perfect balance at 4 shards)\n",
			"Rebalance/p3s4", on, rebalShare[true])
	}
	fmt.Println()
	return results
}

// compareAgainstBaseline checks the current micro-benchmark results
// against a committed baseline report, failing on >2x inflation of
// ns/op or allocs/op for any kernel present in both, and on any
// baseline kernel missing from the current run (a silently dropped or
// renamed kernel would otherwise disable its gate). allocs/op is
// machine-independent and always gated; ns/op is gated only when the
// baseline was recorded on comparable hardware (same GOARCH and CPU
// count), since wall-clock ratios across different machines measure
// the hardware, not the code — on mismatched hardware ns/op is
// reported informationally. A small absolute grace (1µs, 8 allocs)
// keeps near-zero kernels from tripping on scheduler noise; a
// baseline without a benchmarks section (pre-PR 3 reports) compares
// nothing and passes, which is the bootstrap path.
func compareAgainstBaseline(path string, current []benchResult) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base jsonReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		fmt.Printf("baseline %s has no micro-benchmarks; nothing to compare (bootstrap)\n", path)
		return nil
	}
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	sameHardware := base.GOARCH == runtime.GOARCH && base.NumCPU == runtime.NumCPU()
	// Core-budget mismatch is a warning, never a failure: the pipeline
	// kernels (PushIngest, Coordinate, Rebalance) run producers and
	// shards on their own goroutines, so their ns/op scales with
	// GOMAXPROCS, and wall-clock ratios against a baseline recorded
	// under a different scheduler width measure the core budget, not
	// the code. allocs/op stays gated. A baseline without the field
	// (reports from before it was recorded) is treated as unknown and
	// warned.
	if base.GoMaxProcs != runtime.GOMAXPROCS(0) {
		if base.GoMaxProcs == 0 {
			fmt.Printf("warning: baseline %s predates go_max_procs recording; current GOMAXPROCS=%d — ns/op comparisons for parallel kernels may be misleading\n",
				path, runtime.GOMAXPROCS(0))
		} else {
			fmt.Printf("warning: baseline GOMAXPROCS=%d != current GOMAXPROCS=%d — ns/op gating disabled (parallel kernels scale with the core budget)\n",
				base.GoMaxProcs, runtime.GOMAXPROCS(0))
		}
		sameHardware = false
	}
	if sameHardware {
		fmt.Printf("### compare — current vs %s (fail > 2.00x ns/op or allocs/op)\n", path)
	} else {
		fmt.Printf("### compare — current vs %s (fail > 2.00x allocs/op; ns/op informational: baseline hardware %s/%d cpu != %s/%d cpu)\n",
			path, base.GOARCH, base.NumCPU, runtime.GOARCH, runtime.NumCPU())
	}
	failed := false
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[cur.Name] = true
		old, ok := byName[cur.Name]
		if !ok {
			fmt.Printf("  %-34s new kernel, no baseline\n", cur.Name)
			continue
		}
		nsRatio := cur.NsPerOp / old.NsPerOp
		nsBad := sameHardware && nsRatio > 2 && cur.NsPerOp-old.NsPerOp > 1000
		allocsBad := cur.AllocsPerOp > 2*old.AllocsPerOp+8
		verdict := "ok"
		if nsBad || allocsBad {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-34s ns/op %.2fx (%.0f -> %.0f)  allocs/op %d -> %d  %s\n",
			cur.Name, nsRatio, old.NsPerOp, cur.NsPerOp, old.AllocsPerOp, cur.AllocsPerOp, verdict)
	}
	for _, old := range base.Benchmarks {
		if !seen[old.Name] {
			fmt.Printf("  %-34s MISSING from current run (kernel dropped or renamed without a new baseline)\n", old.Name)
			failed = true
		}
	}
	fmt.Println()
	if failed {
		return fmt.Errorf("micro-benchmarks regressed against %s (commit a new baseline only with a justification)", path)
	}
	return nil
}
