package macrobase

// Benchmarks regenerating the kernels behind every table and figure in
// the paper's evaluation. Each benchmark notes the result it supports;
// run the full sweep with
//
//	go test -bench=. -benchmem
//
// and the full experiment harness (paper-shaped tables) with
//
//	go run ./cmd/mbbench -run all
import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"macrobase/internal/baselines"
	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/experiments"
	"macrobase/internal/explain"
	"macrobase/internal/fptree"
	"macrobase/internal/gen"
	"macrobase/internal/mcd"
	"macrobase/internal/pipeline"
	"macrobase/internal/sample"
	"macrobase/internal/sketch"
)

// --- Figure 3: estimator training under contamination -----------------

func BenchmarkFig3Estimators(b *testing.B) {
	uni, _ := gen.Contamination(50_000, 1, 0.2, 1)
	multi, _ := gen.Contamination(20_000, 2, 0.2, 2)
	b.Run("zscore", func(b *testing.B) {
		tr := classify.ZScoreTrainer(0)
		for i := 0; i < b.N; i++ {
			if _, err := tr(uni); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mad", func(b *testing.B) {
		tr := classify.MADTrainer(0)
		for i := 0; i < b.N; i++ {
			if _, err := tr(uni); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mcd", func(b *testing.B) {
		tr := classify.MCDTrainer(mcd.Config{Seed: 3, Trials: 50})
		for i := 0; i < b.N; i++ {
			if _, err := tr(multi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 5: reservoir sampler kernels ------------------------------

func BenchmarkFig5Reservoirs(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		r := sample.NewUniform[float64](10_000, sample.NewRNG(1))
		for i := 0; i < b.N; i++ {
			r.Observe(float64(i))
		}
	})
	b.Run("tupledecay", func(b *testing.B) {
		r := sample.NewTupleDecay[float64](10_000, sample.NewRNG(2))
		for i := 0; i < b.N; i++ {
			r.Observe(float64(i))
		}
	})
	b.Run("adr", func(b *testing.B) {
		r := sample.NewADR[float64](10_000, 0.01, sample.NewRNG(3))
		for i := 0; i < b.N; i++ {
			r.Observe(float64(i))
			if i%100_000 == 0 {
				r.Decay()
			}
		}
	})
}

// --- Table 2: end-to-end one-shot and streaming execution -------------

func benchDatasetPoints(b *testing.B, name string, simple bool, n int) []core.Point {
	b.Helper()
	ds, err := gen.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Simple: simple, Seed: 42})
	return pts
}

func BenchmarkTable2OneShot(b *testing.B) {
	for _, q := range []struct {
		name   string
		simple bool
	}{{"CMT", true}, {"CMT", false}, {"Liquor", true}, {"Telecom", false}} {
		pts := benchDatasetPoints(b, q.name, q.simple, 100_000)
		label := q.name
		if q.simple {
			label += "/simple"
		} else {
			label += "/complex"
		}
		b.Run(label, func(b *testing.B) {
			b.SetBytes(int64(len(pts)))
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.RunOneShot(pts, pipeline.Config{
					Dims: len(pts[0].Metrics), Seed: 7, TrainSampleSize: 10_000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2Streaming(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", true, 100_000)
	b.SetBytes(int64(len(pts)))
	for i := 0; i < b.N; i++ {
		src := core.NewSliceSource(pts)
		if _, err := pipeline.RunStreaming(src, pipeline.Config{
			Dims: 1, Seed: 7, RetrainEvery: 50_000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 6.3: cardinality-aware explanation ------------------------

func benchLabeled(b *testing.B, name string, n int) []core.LabeledPoint {
	b.Helper()
	pts := benchDatasetPoints(b, name, false, n)
	labeled, err := pipeline.ClassifyOneShot(pts, pipeline.Config{
		Dims: len(pts[0].Metrics), Seed: 9, TrainSampleSize: 10_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return labeled
}

func BenchmarkCardinalityAware(b *testing.B) {
	labeled := benchLabeled(b, "CMT", 100_000)
	cfg := explain.BatchConfig{MinSupport: 0.001, MinRiskRatio: 3}
	b.Run("macrobase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explain.ExplainBatch(labeled, cfg)
		}
	})
	b.Run("separate-fpgrowth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explain.ExplainSeparate(labeled, cfg)
		}
	})
}

// --- Figure 6: heavy-hitter sketch updates ----------------------------

func BenchmarkFig6Sketches(b *testing.B) {
	pts := benchDatasetPoints(b, "Disburse", false, 200_000)
	stream := make([]int32, len(pts))
	for i := range pts {
		stream[i] = pts[i].Attrs[0]
	}
	for _, size := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("amc/%d", size), func(b *testing.B) {
			s := sketch.NewAMC[int32](size, 0.01).WithMaintenanceEvery(10_000)
			for i := 0; i < b.N; i++ {
				s.Observe(stream[i%len(stream)], 1)
			}
		})
		b.Run(fmt.Sprintf("damc/%d", size), func(b *testing.B) {
			s := sketch.NewDenseAMC(size, 0.01).WithMaintenanceEvery(10_000)
			for i := 0; i < b.N; i++ {
				s.Observe(stream[i%len(stream)], 1)
			}
		})
		b.Run(fmt.Sprintf("ssh/%d", size), func(b *testing.B) {
			s := sketch.NewSpaceSavingHeap[int32](size)
			for i := 0; i < b.N; i++ {
				s.Observe(stream[i%len(stream)], 1)
			}
		})
		b.Run(fmt.Sprintf("ssl/%d", size), func(b *testing.B) {
			s := sketch.NewSpaceSavingList[int32](size)
			s.Decay(0.99) // non-integer counts: the decayed regime
			for i := 0; i < b.N; i++ {
				s.Observe(stream[i%len(stream)], 1)
			}
		})
	}
}

// --- Table 3: fused kernel vs portable runtime ------------------------

func BenchmarkTable3Fastpath(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", true, 200_000)
	metrics, attrs := experiments.Flatten(pts)
	b.Run("portable", func(b *testing.B) {
		b.SetBytes(int64(len(pts)))
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.RunOneShot(pts, pipeline.Config{Dims: 1, Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(len(pts)))
		for i := 0; i < b.N; i++ {
			experiments.FastSimpleQuery(metrics, attrs, 0.99, 0.001, 3)
		}
	})
}

// --- Table 4: DBSherlock localization query ---------------------------

func BenchmarkTable4DBSherlock(b *testing.B) {
	cl := gen.DBSherlockCluster(gen.ClusterConfig{Samples: 300, Anomaly: gen.A5CPUStress, Seed: 11})
	pts := gen.ProjectMetrics(cl.Points, gen.QSMetricIndices())
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.RunOneShot(pts, pipeline.Config{
			Dims: 15, Percentile: 0.95, MinSupport: 0.01, MinRiskRatio: 1.5,
			TrainSampleSize: 3000, Seed: 13,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: alternative explainers -----------------------------------

func BenchmarkTable5Explainers(b *testing.B) {
	labeled := benchLabeled(b, "Accidents", 50_000)
	b.Run("macrobase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explain.ExplainBatch(labeled, explain.BatchConfig{})
		}
	})
	b.Run("cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.Cube(labeled, baselines.CubeConfig{})
		}
	})
	b.Run("dtree10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.DecisionTree(labeled, baselines.DTreeConfig{MaxDepth: 10})
		}
	})
	b.Run("xray", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.XRay(labeled, baselines.XRayConfig{})
		}
	})
	b.Run("apriori", func(b *testing.B) {
		var txs [][]int32
		var totalOut float64
		for i := range labeled {
			if labeled[i].Label == core.Outlier {
				txs = append(txs, labeled[i].Attrs)
				totalOut++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			baselines.Apriori(txs, 0.001*totalOut, nil)
		}
	})
}

// --- Figure 9: training on samples -------------------------------------

func BenchmarkFig9Sampling(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", false, 200_000)
	for _, size := range []int{1000, 10_000, 0} {
		name := fmt.Sprintf("sample-%d", size)
		if size == 0 {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := classify.FitBatch(pts, classify.MCDTrainer(mcd.Config{Seed: 5, Trials: 50}),
					classify.FitBatchConfig{TrainSampleSize: size, Seed: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 10: MCD vs dimensionality ----------------------------------

func BenchmarkFig10MCDDim(b *testing.B) {
	for _, d := range []int{2, 8, 32} {
		uni, _ := gen.Contamination(5000, 1, 0, 7)
		pts := make([][]float64, len(uni))
		for i := range pts {
			v := make([]float64, d)
			for j := range v {
				v[j] = uni[i][0] * float64(j+1)
			}
			// De-correlate dimensions slightly to keep covariance SPD.
			for j := 1; j < d; j++ {
				v[j] += float64(i%97) * 0.01 * float64(j)
			}
			pts[i] = v
		}
		b.Run(fmt.Sprintf("train-d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcd.Fit(pts, mcd.Config{Seed: 5, Trials: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
		est, err := mcd.Fit(pts, mcd.Config{Seed: 5, Trials: 20})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("score-d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est.Score(pts[i%len(pts)])
			}
		})
	}
}

// --- FastMCD refit: the streaming retrain and the batch fit --------------

// BenchmarkMCDFit is one default-config fit over the metrics of the
// end-to-end workloads' datasets: n10k is a shard's reservoir refit
// (p7 firehose_xc, p2 poll_drift), n40k the batch_query training sample.
func BenchmarkMCDFit(b *testing.B) {
	for _, k := range []struct {
		name, dataset string
		n             int
	}{{"n10k-p7", "CMT", 10_000}, {"n10k-p2", "Liquor", 10_000}, {"n40k-p7", "CMT", 40_000}} {
		pts := benchDatasetPoints(b, k.dataset, false, k.n)
		rows := make([][]float64, len(pts))
		for i := range pts {
			rows[i] = pts[i].Metrics
		}
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcd.Fit(rows, mcd.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 11: shared-nothing scale-out --------------------------------

func BenchmarkFig11ScaleOut(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", true, 100_000)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions-%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(pts)))
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunParallel(pts, pipeline.Config{
					Dims: 1, Seed: 11, TrainSampleSize: 10_000,
				}, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Appendix D: M-CPS-tree vs CPS-tree --------------------------------

func BenchmarkMCPSvsCPS(b *testing.B) {
	pts := benchDatasetPoints(b, "Liquor", false, 50_000)
	run := func(b *testing.B, mkTree func() *cps.Tree, mcps bool) {
		for i := 0; i < b.N; i++ {
			tree := mkTree()
			amc := sketch.NewAMC[int32](10_000, 0.01)
			for j := range pts {
				for _, a := range pts[j].Attrs {
					amc.Observe(a, 1)
				}
				tree.Insert(pts[j].Attrs, 1)
				if (j+1)%10_000 == 0 {
					if mcps {
						freqItems, freqCounts := []int32{}, []float64{}
						amc.ForEach(func(item int32, c float64) {
							if c >= 10 {
								freqItems = append(freqItems, item)
								freqCounts = append(freqCounts, c)
							}
						})
						tree.Restructure(freqItems, freqCounts, 0.99)
					} else {
						tree.Restructure(nil, nil, 0.99)
					}
				}
			}
		}
	}
	b.Run("mcps", func(b *testing.B) { run(b, cps.NewMCPS, true) })
	b.Run("cps", func(b *testing.B) { run(b, cps.NewCPS, false) })
}

// --- Explanation mining kernel ------------------------------------------

func BenchmarkFPGrowthMine(b *testing.B) {
	pts := benchDatasetPoints(b, "Accidents", false, 50_000)
	txs := make([][]int32, len(pts))
	for i := range pts {
		txs[i] = pts[i].Attrs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := fptree.Build(txs, nil, 50)
		tree.Mine(50)
	}
}

// --- Appendix D: kNN detector baseline ----------------------------------

func BenchmarkKNNBaseline(b *testing.B) {
	uni, _ := gen.Contamination(20_000, 2, 0.1, 13)
	scorer := baselines.NewKNNScorer(uni[:10_000], 5)
	mcdEst, err := mcd.Fit(uni[:10_000], mcd.Config{Seed: 15, Trials: 50})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("knn-score", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scorer.Score(uni[i%len(uni)])
		}
	})
	b.Run("mcd-score", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mcdEst.Score(uni[i%len(uni)])
		}
	})
}

// --- Streaming explainer hot path --------------------------------------

// benchStreamLabeled builds a deterministic labeled stream (top-3% of
// metric[0] are outliers) so the explainer benchmarks exercise no
// trainable classifier.
func benchStreamLabeled(b *testing.B, name string, n int) []core.LabeledPoint {
	b.Helper()
	pts := benchDatasetPoints(b, name, false, n)
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
	return labeled
}

// BenchmarkStreamingExplain measures the per-point explanation hot
// path (Figure 6 / §5.3 regime): consume covers AMC observes + M-CPS
// inserts with periodic decay/restructure ticks folded in; poll covers
// the serving path (clone + merge + mine + rank); clone isolates the
// snapshot cost a sharded poll pays per shard.
func BenchmarkStreamingExplain(b *testing.B) {
	labeled := benchStreamLabeled(b, "CMT", 100_000)
	const batchSize = 1024
	var batches [][]core.LabeledPoint
	for i := 0; i < len(labeled); i += batchSize {
		end := i + batchSize
		if end > len(labeled) {
			end = len(labeled)
		}
		batches = append(batches, labeled[i:end])
	}
	cfg := explain.StreamingConfig{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05}
	b.Run("consume", func(b *testing.B) {
		s := explain.NewStreaming(cfg)
		b.SetBytes(batchSize)
		for i := 0; i < b.N; i++ {
			s.Consume(batches[i%len(batches)])
			if (i+1)%64 == 0 {
				s.Decay()
			}
		}
	})
	warm := explain.NewStreaming(cfg)
	for i, bt := range batches {
		warm.Consume(bt)
		if (i+1)%64 == 0 {
			warm.Decay()
		}
	}
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warm.Clone()
		}
	})
	b.Run("poll", func(b *testing.B) {
		other := warm.Clone()
		for i := 0; i < b.N; i++ {
			explain.MergeStreamingInto([]*explain.Streaming{warm.Clone(), other.Clone()})
		}
	})
}

// --- Sharded streaming engine: shard-count throughput sweep ------------

// BenchmarkShardedStream sweeps the shared-nothing sharded streaming
// engine from 1 shard up to max(4, GOMAXPROCS) on the streaming MDP
// workload (the Table 2 streaming kernel). With one shard this is the
// sequential EWS pipeline plus channel hand-off; with P shards on >= P
// cores, throughput should scale close to linearly until ingest
// partitioning saturates (run on a multicore machine to observe the
// paper-style Figure 11 scaling; a single-core box serializes the
// workers).
func BenchmarkShardedStream(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", true, 100_000)
	maxShards := runtime.GOMAXPROCS(0)
	if maxShards < 4 {
		maxShards = 4
	}
	var shardCounts []int
	for p := 1; p <= maxShards; p *= 2 {
		shardCounts = append(shardCounts, p)
	}
	if last := shardCounts[len(shardCounts)-1]; last != maxShards {
		shardCounts = append(shardCounts, maxShards)
	}
	for _, p := range shardCounts {
		b.Run(fmt.Sprintf("shards-%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(pts)))
			for i := 0; i < b.N; i++ {
				src := core.NewSliceSource(pts)
				if _, err := pipeline.RunPartitionedStream(src, pipeline.Config{
					Dims: 1, Seed: 7, RetrainEvery: 50_000,
				}, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamSessionPoll measures the serving-path latency of the
// /stream poll endpoint in two regimes:
//
//   - live: ingest keeps running, so shard state moves between polls.
//   - steady: the source idles after feeding the workload (no ingest,
//     no decay between polls) — the regime a dashboard polling an
//     intermittently bursty stream sits in almost all the time.
//
// Both are full polls: clone every shard, fold the clones, mine,
// recount and rank (doc.go, "One poll path"). steady differs from live
// only in that ingest does not compete with the poll for the cores.
// The workload uses the complex (multi-attribute) CMT stream and a
// generous outlier cut so the poll path is mining-bound, the regime
// the paper's explanation workloads sit in.
func BenchmarkStreamSessionPoll(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", false, 100_000)
	cfg := pipeline.Config{
		Dims: len(pts[0].Metrics), Seed: 7, RetrainEvery: 50_000,
		Percentile: 0.97, MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05,
	}

	b.Run("live", func(b *testing.B) {
		i := 0
		src := core.NewFuncSource(4096, func(dst []core.Point) int {
			for j := range dst {
				dst[j] = pts[i%len(pts)]
				i++
			}
			return len(dst)
		})
		sess, err := pipeline.StartPartitionedStream(src, cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Poll(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// steady feeds the whole workload once, then blocks the source
	// until the benchmark releases it (returning 0 then ends the
	// stream, letting Stop drain cleanly) and times polls over the
	// settled state.
	b.Run("steady", func(b *testing.B) {
		fed := 0
		release := make(chan struct{})
		src := core.NewFuncSource(4096, func(dst []core.Point) int {
			if fed >= len(pts) {
				<-release
				return 0
			}
			for j := range dst {
				dst[j] = pts[fed%len(pts)]
				fed++
			}
			return len(dst)
		})
		sess, err := pipeline.StartPartitionedStream(src, cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			b.StopTimer()
			close(release)
			sess.Stop()
		}()
		// Wait until every point is ingested and the workers drained
		// their queues: polls stop observing state movement once two
		// consecutive snapshots carry identical class totals.
		lastOut := -1.0
		for {
			res, err := sess.Poll()
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Points >= len(pts) && len(res.Explanations) > 0 {
				if out := res.Explanations[0].TotalOutliers; out == lastOut {
					break
				} else {
					lastOut = out
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Poll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
