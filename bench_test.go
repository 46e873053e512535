package macrobase

// Benchmarks regenerating the kernels behind every table and figure in
// the paper's evaluation, and the hot-path kernels that the committed
// baseline gates (see "Gated hot-path kernels" below). Each benchmark
// notes the result it supports; run the full sweep with
//
//	go test -bench=. -benchmem
//
// the gated kernels through the gate with
//
//	go test -run '^$' -bench '^Benchmark(StreamingExplain|Poll|PushIngest|Coordinate|Rebalance|Route|FPGrowthMine|MCDFit)$' -benchmem . |
//		go run ./cmd/mbbench -run fig6 -compare BENCH_PR32.json
//
// and the full experiment harness (paper-shaped tables) with
//
//	go run ./cmd/mbbench -run all
import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"macrobase/internal/baselines"
	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/encode"
	"macrobase/internal/experiments"
	"macrobase/internal/explain"
	"macrobase/internal/fptree"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
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

// --- Gated hot-path kernels ----------------------------------------------
//
// The kernels below, StreamingExplain/clone aside, are the ones
// BENCH_PR32.json records: CI runs them with -benchmem and `mbbench
// -compare` fails on a missing kernel or on >2x inflation (see doc.go,
// "Kernel baseline"). A kernel's data and definition are those the
// baseline recorded; changing either needs a new baseline.

// benchStreamLabeled builds the kernels' deterministic labeled CMT
// stream of 60K points (top-3% of metric[0] are outliers), so the
// explainer kernels exercise no trainable classifier.
func benchStreamLabeled(b *testing.B) []core.LabeledPoint {
	b.Helper()
	pts := benchDatasetPoints(b, "CMT", false, 60_000)
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

// benchStreamBatches cuts the labeled stream into 1024-point batches.
func benchStreamBatches(b *testing.B) [][]core.LabeledPoint {
	labeled := benchStreamLabeled(b)
	const batch = 1024
	var batches [][]core.LabeledPoint
	for i := 0; i < len(labeled); i += batch {
		batches = append(batches, labeled[i:min(i+batch, len(labeled))])
	}
	return batches
}

// benchExplainCfg is the explainer configuration of the explanation
// kernels.
var benchExplainCfg = explain.StreamingConfig{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05}

// BenchmarkStreamingExplain measures the per-point explanation hot
// path (Figure 6 / §5.3 regime): consume covers AMC observes + M-CPS
// inserts with periodic decay/restructure ticks folded in; poll-full
// is the poll after a decay tick, which is what the end-to-end
// workloads' polls are (a mine of the qualified attributes, recount and
// rank); clone isolates
// the snapshot cost a sharded poll pays per shard.
func BenchmarkStreamingExplain(b *testing.B) {
	batches := benchStreamBatches(b)
	b.Run("consume", func(b *testing.B) {
		s := explain.NewStreaming(benchExplainCfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Consume(batches[i%len(batches)])
			if (i+1)%64 == 0 {
				s.Decay()
			}
		}
	})
	warm := explain.NewStreaming(benchExplainCfg)
	for i, bt := range batches {
		warm.Consume(bt)
		if (i+1)%64 == 0 {
			warm.Decay()
		}
	}
	// Each op (untimed) decays the explainer first, and every 64 ops it
	// is reset (untimed) to the same warm state, so per-op cost reflects
	// the 60K-point working set, not b.N-dependent decay.
	b.Run("poll-full", func(b *testing.B) {
		var s *explain.Streaming
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%64 == 0 {
				s = warm.Clone()
			}
			s.Decay()
			b.StartTimer()
			s.Explanations()
		}
	})
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warm.Clone()
		}
	})
}

// BenchmarkPoll is the session's merged poll: 4 warmed shard
// explainers (the stream dealt round-robin, shared decay clock), and
// per op a Clone of each shard, then MergeStreamingInto (shard merge
// of sketches and outlier tree, the inlier trees borrowed) + FPGrowth
// mine + canonical recount + an inlier count per combination summed
// over the four shards' trees, all on the polling goroutine.
func BenchmarkPoll(b *testing.B) {
	batches := benchStreamBatches(b)
	b.Run("p3s4", func(b *testing.B) {
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
	})
}

// BenchmarkPushIngest measures the push path. p3s4 is the
// ingest-throughput kernel: 3 concurrent producers feed a resident
// 4-shard session through ingest.Push; one op is one 1024-point batch
// pushed through the full pipeline (route + classify + explain), timed
// until the stream drains, after a warm-up (see p3s4Session).
// binary-decode decodes a 1024-row "MBR1" buffer into a recycled batch
// through a warm encoder per op — the per-request parse cost of
// mbserver's binary push path, allocation-free in steady state.
// cmt-simple-16k and cmt-complex-4k decode one push request of the
// end-to-end harness's shape through a warm ingest.PushDecoder per op:
// 16384 CMT rows of the simple query (1 metric, 1 attribute), as
// firehose_xs pushes them, and 4096 of the complex one (7 metrics, 6
// attributes), as firehose_xc does.
func BenchmarkPushIngest(b *testing.B) {
	b.Run("p3s4", func(b *testing.B) {
		d := gen.Devices(gen.DeviceConfig{Points: 64_512, Devices: 400, Seed: 42})
		p3s4Session(b, p3s4Batches(d.Points), pipeline.Config{
			Dims: 1, MinSupport: 0.005, DecayEveryPoints: 100_000, Seed: 7,
		})
	})
	b.Run("binary-decode", func(b *testing.B) {
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
				b.Fatal(err)
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
					b.Fatal(err)
				}
			}
			if batch.Len() != rows {
				b.Fatalf("decoded %d rows, want %d", batch.Len(), rows)
			}
		}
		decode() // warm: intern attrs, size scratch and slabs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode()
		}
	})
	for _, q := range []struct {
		name   string
		simple bool
		rows   int
	}{{"cmt-simple-16k", true, 16384}, {"cmt-complex-4k", false, 4096}} {
		b.Run(q.name, func(b *testing.B) {
			frame, schema, enc := benchCMTFrame(b, q.simple, q.rows)
			dec := ingest.NewPushDecoder(schema, enc)
			rd := bytes.NewReader(frame)
			batch := &core.Batch{}
			decode := func() {
				rd.Reset(frame)
				batch.Reset()
				if err := dec.Decode(rd, true, batch); err != nil || batch.Len() != q.rows {
					b.Fatalf("decoded %d rows (%v), want %d", batch.Len(), err, q.rows)
				}
			}
			decode() // warm
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decode()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*q.rows), "ns/row")
		})
	}
}

// benchCMTFrame MBR1-encodes rows CMT points of the simple or complex
// query as one push request, without event times, as the end-to-end
// harness writes its frames. It returns the frame, its schema and a
// fresh encoder for the decode to intern into.
func benchCMTFrame(b *testing.B, simple bool, rows int) ([]byte, ingest.Schema, *encode.Encoder) {
	b.Helper()
	ds, err := gen.DatasetByName("CMT")
	if err != nil {
		b.Fatal(err)
	}
	genEnc, pts, _ := ds.Generate(gen.GenerateConfig{Points: rows, Simple: simple, Seed: 42})
	schema := ingest.Schema{Metrics: ds.MetricNames[:len(pts[0].Metrics)], Attributes: genEnc.Columns()}
	var buf bytes.Buffer
	w := ingest.NewBinaryRowWriter(&buf)
	vals := make([]string, len(schema.Attributes))
	for _, p := range pts {
		for j, id := range p.Attrs {
			vals[j] = genEnc.Decode(id).Value
		}
		if err := w.WriteRow(p.Metrics, vals, 0); err != nil {
			b.Fatal(err)
		}
	}
	return buf.Bytes(), schema, encode.NewEncoder(schema.Attributes...)
}

// BenchmarkDictionaryStall measures what a writer on the dictionary
// costs a push decode: per op, one complex CMT frame (4096 rows, six
// attributes, every value already interned) decodes while another
// goroutine interns new values without pause, into the decode's own
// encoder (shared) or into another one (separate). Each new value takes
// the encoder's write lock, which the decode's block lookups wait out;
// shared minus separate is that wait, the stall sharing one dictionary
// among a session's decoders costs; interns/op is the interner's side
// of it, the values it got in while one frame decoded. Measurement
// only: no gate reads it.
// The interner's dictionary is replaced, untimed, every 200K values, so
// its memory stays a few tens of MB however long the benchmark runs.
func BenchmarkDictionaryStall(b *testing.B) {
	for _, shared := range []bool{true, false} {
		name := "separate"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			frame, schema, _ := benchCMTFrame(b, false, 4096)
			var (
				dec      *ingest.PushDecoder
				target   atomic.Pointer[encode.Encoder] // the interner's encoder
				interned atomic.Int64                   // into target
				total    atomic.Int64                   // while timed
			)
			rd := bytes.NewReader(frame)
			batch := &core.Batch{}
			decode := func() {
				rd.Reset(frame)
				batch.Reset()
				if err := dec.Decode(rd, true, batch); err != nil {
					b.Fatal(err)
				}
			}
			renew := func() {
				enc := encode.NewEncoder(schema.Attributes...)
				if shared || dec == nil {
					dec = ingest.NewPushDecoder(schema, enc)
					decode() // warm: every value of the frame interned
				}
				if !shared {
					enc = encode.NewEncoder(schema.Attributes...)
				}
				target.Store(enc)
				interned.Store(0)
			}
			renew()
			stop, done := make(chan struct{}), make(chan struct{})
			defer func() {
				close(stop)
				<-done
			}()
			go func() {
				defer close(done)
				ids, vals := make([]int32, 1), make([][]byte, 1)
				var val []byte
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					val = strconv.AppendInt(append(val[:0], "new-"...), int64(i), 10)
					vals[0] = val
					target.Load().EncodeRows(ids, vals, 1)
					interned.Add(1)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if interned.Load() >= 200_000 {
					b.StopTimer()
					renew()
					b.StartTimer()
				}
				before := interned.Load()
				decode()
				total.Add(interned.Load() - before)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4096), "ns/row")
			b.ReportMetric(float64(total.Load())/float64(b.N), "interns/op")
		})
	}
}

// BenchmarkCoordinate is the coordination-overhead kernel: the
// PushIngest/p3s4 workload with an aggressive CoordinateEvery (a
// threshold round every 4 batches of stream progress, ~6x the default
// rate), so the collect/merge/apply round-trip cost shows up in ns/op
// instead of amortizing to noise. Compare against PushIngest/p3s4
// (default cadence) for the per-batch cost of coordination itself.
func BenchmarkCoordinate(b *testing.B) {
	b.Run("p3s4", func(b *testing.B) {
		d := gen.Devices(gen.DeviceConfig{Points: 64_512, Devices: 400, Seed: 42})
		p3s4Session(b, p3s4Batches(d.Points), pipeline.Config{
			Dims: 1, MinSupport: 0.005, DecayEveryPoints: 100_000,
			CoordinateEvery: 4096, Seed: 7,
		})
	})
}

// BenchmarkRebalance is the skew-adaptive routing workload: a Zipf
// stream whose hot devices all hash to shard 0 of 4, pushed by 3
// producers through the full pipeline, one op a 1024-point batch. The
// pinned twin (DisableRebalance) measures the same stream with the
// routing table frozen at the static hash. Each reports the final
// hot-shard load share (the hottest shard's fraction of all points;
// 0.25 is perfect balance) as hot-share, so the on/off comparison
// covers balance as well as ns/op. The win is a wall-clock one — the
// hot shard stops being the convoy — so it needs >= 4 real cores to
// show up in ns/op; the load-share spread is visible anywhere.
func BenchmarkRebalance(b *testing.B) {
	for _, k := range []struct {
		name   string
		pinned bool
	}{{"p3s4", false}, {"p3s4-pinned", true}} {
		b.Run(k.name, func(b *testing.B) {
			d := gen.SkewedDevices(64_512, p3s4Shards, 42)
			final := p3s4Session(b, p3s4Batches(d.Points), pipeline.Config{
				Dims: 1, MinSupport: 0.005, DecayEveryPoints: 100_000,
				CoordinateEvery: 4096, DisableRebalance: k.pinned, Seed: 7,
			})
			var hot, total int
			for _, s := range final.Shards.PerShard {
				total += s.Points
				hot = max(hot, s.Points)
			}
			b.ReportMetric(float64(hot)/float64(total), "hot-share")
		})
	}
}

// BenchmarkRoute is the pure data-plane kernel: 3 producers feed a
// 4-shard StreamRunner whose shards have no classifier or explainer,
// so one op is one 1024-point batch through producer enqueue,
// partition read, bucket routing through the live routing table into
// pooled per-shard slabs, and worker consumption — the ingest plane
// with the analytics stripped out. Rebalancing is on so the
// 0-allocs/op gate also guards the bucket load counters and epoch
// swaps.
func BenchmarkRoute(b *testing.B) {
	b.Run("p3s4", func(b *testing.B) {
		d := gen.Devices(gen.DeviceConfig{Points: 64_512, Devices: 400, Seed: 42})
		src := ingest.NewPush(p3s4Producers)
		sr := &core.StreamRunner{
			Partitioned:     src,
			Shards:          p3s4Shards,
			NewShard:        func(int) core.ShardPipeline { return core.ShardPipeline{} },
			BatchSize:       p3s4BatchPoints,
			Rebalance:       true,
			CoordinateEvery: 8192,
		}
		p3s4Push(b, src, p3s4Batches(d.Points), func() {
			if _, err := sr.Run(); err != nil {
				b.Fatal(err)
			}
		})
		b.StopTimer()
	})
}

// BenchmarkFPGrowthMine builds and mines the FP-tree of the first 20K
// transactions of the kernels' CMT stream at support 20.
func BenchmarkFPGrowthMine(b *testing.B) {
	labeled := benchStreamLabeled(b)
	txs := make([][]int32, 20_000)
	for i := range txs {
		txs[i] = labeled[i].Attrs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := fptree.Build(txs, nil, 20)
		tree.Mine(20)
	}
}

// BenchmarkMCDFit is one default-config fit over the metrics of the
// end-to-end workloads' datasets: n10k is a shard's reservoir refit
// (p7 firehose_xc, p2 poll_drift), n40k the batch_query training sample.
// A fit runs on GOMAXPROCS goroutines; these kernels pin one around
// their loop, whatever -cpu says, so they watch the one-worker fit (a
// crew of no helpers), and a crew's speedup cannot hide a slower C-step.
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
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mcd.Fit(rows, mcd.Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// BenchmarkCSVRead reads the batch_query workload's input shape, a
// 40K-row CMT CSV (7 metrics, 6 attributes), through an encoder warmed
// by a first read: serial is the streaming read (NextBatchInto into one
// recycled 4096-row batch), parallel the one-shot read (ReadAll, on
// GOMAXPROCS goroutines). A row allocates nothing on either; serial's
// allocations are the source's own set-up and the slabs of the one
// block it recycles, parallel's the set-up, the slabs of each 256 KB
// block and the points once. No baseline records it yet.
func BenchmarkCSVRead(b *testing.B) {
	ds, err := gen.DatasetByName("CMT")
	if err != nil {
		b.Fatal(err)
	}
	enc, pts, _ := ds.Generate(gen.GenerateConfig{Points: 40_000, Seed: 42})
	schema := ingest.Schema{Metrics: ds.MetricNames, Attributes: enc.Columns()}
	var buf bytes.Buffer
	if err := ingest.WriteCSV(&buf, schema, enc, pts); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	open := func(enc *encode.Encoder) *ingest.CSVSource {
		src, err := ingest.NewCSVSource(bytes.NewReader(data), schema, enc)
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	b.Run("serial", func(b *testing.B) {
		enc := encode.NewEncoder(schema.Attributes...)
		batch := core.NewBatch(4096, len(schema.Metrics), len(schema.Attributes))
		read := func() {
			src, rows := open(enc), 0
			for {
				batch.Reset()
				if _, err := src.NextBatchInto(context.Background(), batch, 4096); err == core.ErrEndOfStream {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				rows += batch.Len()
			}
			if rows != len(pts) {
				b.Fatalf("read %d rows, want %d", rows, len(pts))
			}
		}
		read()
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		enc := encode.NewEncoder(schema.Attributes...)
		read := func() {
			got, err := open(enc).ReadAll()
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(pts) {
				b.Fatalf("read %d rows, want %d", len(got), len(pts))
			}
		}
		read()
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
}

// The p3s4 kernels push one stream from 3 producers through 4 shards;
// one op is one 1024-point batch.
const (
	p3s4Producers   = 3
	p3s4Shards      = 4
	p3s4BatchPoints = 1024
)

// p3s4Batches cuts pts into whole p3s4BatchPoints-point batches.
func p3s4Batches(pts []core.Point) [][]core.Point {
	var batches [][]core.Point
	for off := 0; off+p3s4BatchPoints <= len(pts); off += p3s4BatchPoints {
		batches = append(batches, pts[off:off+p3s4BatchPoints])
	}
	return batches
}

// p3s4Push is the p3s4 kernels' one fan-out. It resets the timer, then
// p3s4Producers producers deal ops [0, b.N) of batches round-robin into
// src's partitions and close them, while consume (if non-nil) runs on
// the calling goroutine. It returns once every producer is done; the
// caller stops the timer.
func p3s4Push(b *testing.B, src *ingest.Push, batches [][]core.Point, consume func()) {
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < p3s4Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pr := src.Producer(p)
			ctx := context.Background()
			for i := p; i < b.N; i += p3s4Producers {
				if err := pr.Send(ctx, batches[i%len(batches)]); err != nil {
					return
				}
			}
			pr.Close()
		}(p)
	}
	if consume != nil {
		consume()
	}
	wg.Wait()
}

// p3s4Session times the p3s4 push workload through a resident
// p3s4Shards-shard session started with cfg, up to and including the
// drain that closing every producer starts (Stop waits for it), and
// returns the final result. Two untimed passes over batches, polled
// until the shards have taken them in, first take the session past its
// growth phase (tree slabs, sketch tables, ack windows and routing reach
// steady size), so the timed section measures the per-batch path, not
// startup growth amortized over b.N. Stop's drain and final result stay
// timed: the session has no way to wait for the one without the other.
func p3s4Session(b *testing.B, batches [][]core.Point, cfg pipeline.Config) *pipeline.ShardedResult {
	b.Helper()
	src := ingest.NewPush(p3s4Producers)
	sess, err := pipeline.StartPartitionedStream(src, cfg, p3s4Shards)
	if err != nil {
		b.Fatal(err)
	}
	pr := src.Producer(0)
	for i := 0; i < 2*len(batches); i++ {
		if err := pr.Send(context.Background(), batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	want := 2 * len(batches) * p3s4BatchPoints
	deadline := time.Now().Add(10 * time.Second)
	for taken := 0; taken < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatalf("the shards took in %d warm-up points in 10s, want %d", taken, want)
		}
		res, err := sess.Poll()
		if err != nil {
			b.Fatal(err)
		}
		taken = 0
		for _, s := range res.Stats.PerShard {
			taken += s.Points
		}
	}
	p3s4Push(b, src, batches, nil)
	final, err := sess.Stop()
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	return final
}

// --- Sharded streaming engine: shard-count throughput sweep ------------

// BenchmarkExplainBatch is the batch_query explain stage: Algorithm 2
// over the batch_query input's shape, 40K CMT points (6 attributes)
// labeled by the one-shot classifier at its default 99th percentile.
// No baseline records it yet.
func BenchmarkExplainBatch(b *testing.B) {
	pts := benchDatasetPoints(b, "CMT", false, 40_000)
	labeled, err := pipeline.ClassifyOneShot(pts, pipeline.Config{Dims: len(pts[0].Metrics)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(explain.ExplainBatch(labeled, explain.BatchConfig{})) == 0 {
			b.Fatal("no explanations")
		}
	}
}

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
