//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/explain"
	"macrobase/internal/ingest"
	"macrobase/internal/mcd"
)

// replayPolls is the number of snapshot/merge/rank rounds per replay.
const replayPolls = 4

// The replay builds the shard operators itself, so it has to know how
// the server configures them. Everything a query can set comes from the
// program: the query the harness sends goes through
// ingest.QueryConfig.Validate, as mbserver's handler puts it, and the
// defaults are read from the result. Four decisions live in unexported
// code of internal/pipeline (Config.withDefaults, newShardPipeline) and
// internal/core (RebalancePolicy.normalize) and are restated here; the
// smoke test pushes the same frames through mbserver and through the
// replay and fails when outliers or decay ticks differ, so a change to
// any of them in the program does not go unnoticed.
const (
	// retrainEvery is pipeline.Config.RetrainEvery's default; the wire
	// config has no field for it. Shard s of P retrains s*(retrainEvery/P)
	// points early the first time (the stagger).
	retrainEvery = 100_000
	// runnerBatch is pipeline.Config.BatchSize's default: the runner
	// splits a larger pushed frame into batches of this many points.
	runnerBatch = 4096
	// shardSeedStride decorrelates the shards' samplers: shard s is
	// seeded seed + s*shardSeedStride, and a query that names no seed
	// runs with seed 0.
	shardSeedStride = 7919
)

// routingBuckets is the virtual-bucket count for a query that names
// none: the default, rounded up to a multiple of the shard count.
func routingBuckets(shards int) int {
	return (core.DefaultRoutingBuckets + shards - 1) / shards * shards
}

// replayed is what one staged replay of a streaming workload yields.
type replayed struct {
	metrics              map[string]float64
	outliers, decayTicks int // summed over shards, for the drift check
}

// stage accumulates one layer's time and work.
type stage struct {
	ns     int64
	points int
	calls  []float64 // per-call milliseconds, for medians
}

func (s *stage) nsPerPoint() float64 { return ratio(float64(s.ns), float64(s.points)) }

// timed runs fn under a span and charges it to st.
func timed(tr *tracer, parent int, name string, st *stage, points int, fn func()) {
	id := tr.begin(parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.end(id)
	st.ns += d.Nanoseconds()
	st.points += points
	st.calls = append(st.calls, d.Seconds()*1e3)
}

// replayFrames is how much of the pool the staged replay covers: all
// of it (400K points) at the benchmark's run length, less at toy sizes.
func replayFrames(in *inputs, seconds float64) int {
	n := int(math.Round(float64(len(in.frames)) * seconds / 10))
	return min(len(in.frames), max(2*replayPolls, n))
}

// replayStream pushes the first n frames of the (cycled) pool, the
// frames a run of n frames pushes, through each layer's public functions on one goroutine, in pipeline order, emulating P shards by
// routing with core.HashBucket, and returns the staged per-layer
// metrics. It times calls from outside; what the layers do inside
// (cps/fptree mining within Explanations, say) cannot be split here.
func replayStream(in *inputs, n int, tr *tracer) (*replayed, error) {
	sp := in.sp
	dims, nattrs := len(in.metrics), len(in.attrs)
	cfg := ingest.QueryConfig{Input: "push", Metrics: in.metrics, Attributes: in.attrs}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := tr.begin(0, "replay:"+sp.name)
	defer tr.end(root)

	var decode, intern, route, score, retrain, consume, decay, snapshot, merge, rank stage
	out := &replayed{}

	srvEnc := encode.NewEncoder(in.attrs...)
	reader := ingest.NewBinaryRowReader(bytes.NewReader(nil), in.schema(), srvEnc)
	internEnc := encode.NewEncoder(in.attrs...)
	dictSize := int32(0)
	rows := make([][]string, sp.framePoints)
	for i := range rows {
		rows[i] = make([]string, nattrs)
	}
	ids := make([]int32, nattrs)

	buckets := routingBuckets(sp.shards)
	cls := make([]*classify.Streaming, sp.shards)
	exp := make([]*explain.Streaming, sp.shards)
	routed := make([]*core.Batch, sp.shards)
	labeled := make([][]core.LabeledPoint, sp.shards)
	sinceDecay := make([]int, sp.shards)
	for s := range cls {
		cls[s] = classify.NewStreaming(classify.StreamingConfig{
			Dims:               dims,
			ReservoirSize:      cfg.ReservoirSize,
			ScoreReservoirSize: cfg.ReservoirSize,
			DecayRate:          cfg.DecayRate,
			Percentile:         cfg.Percentile,
			RetrainEvery:       retrainEvery,
			RetrainOffset:      s * (retrainEvery / sp.shards),
			Seed:               cfg.Seed + uint64(s)*shardSeedStride,
		}, nil)
		exp[s] = explain.NewStreaming(explain.StreamingConfig{
			MinSupport:   cfg.MinSupport,
			MinRiskRatio: cfg.MinRiskRatio,
			DecayRate:    cfg.DecayRate,
		})
		routed[s] = core.NewBatch(sp.framePoints, dims, nattrs)
	}

	batch := core.NewBatch(sp.framePoints, dims, nattrs)
	type retrainBatch struct {
		ms     float64
		points int
	}
	var retrains []retrainBatch
	retrainCount := 0
	for f := 0; f < n; f++ {
		pool := f % len(in.frames)
		bspan := tr.begin(root, "replay.batch")

		var decodeErr error
		timed(tr, bspan, "ingest.decode", &decode, sp.framePoints, func() {
			batch.Reset()
			reader.Reset(bytes.NewReader(in.frames[pool]))
			for {
				if _, err := reader.ReadInto(batch, 8192); err != nil {
					if err != io.EOF {
						decodeErr = err
					}
					return
				}
			}
		})
		if decodeErr != nil {
			return nil, fmt.Errorf("decoding frame %d: %w", f, decodeErr)
		}

		for i := range rows {
			for j, id := range in.points[pool*sp.framePoints+i].Attrs {
				rows[i][j] = in.enc.Decode(id).Value
			}
		}
		timed(tr, bspan, "encode.intern", &intern, sp.framePoints, func() {
			for _, r := range rows {
				for _, id := range internEnc.EncodeInto(ids, r) {
					dictSize = max(dictSize, id+1)
				}
			}
		})

		// The runner reads a pushed frame in batches of runnerBatch. One
		// shard takes each whole, as the engine's pointer handoff does;
		// only P>1 scatters.
		for all := batch.Points(); len(all) > 0; all = all[min(runnerBatch, len(all)):] {
			pts := all[:min(runnerBatch, len(all))]
			shardPts := [][]core.Point{pts}
			if sp.shards > 1 {
				timed(tr, bspan, "core.route", &route, len(pts), func() {
					for s := range routed {
						routed[s].Reset()
					}
					for i := range pts {
						routed[core.HashBucket(&pts[i], buckets)%sp.shards].AppendPoint(&pts[i])
					}
				})
				shardPts = shardPts[:0]
				for s := range routed {
					shardPts = append(shardPts, routed[s].Points())
				}
			}

			for s, sub := range shardPts {
				before := cls[s].Retrains
				var st stage
				timed(tr, bspan, "classify.score", &st, len(sub), func() {
					labeled[s] = cls[s].ClassifyBatch(labeled[s][:0], sub)
				})
				if n := cls[s].Retrains - before; n > 0 {
					retrainCount += n
					retrains = append(retrains, retrainBatch{st.calls[0], len(sub)})
					retrain.ns += st.ns
				} else {
					score.ns += st.ns
					score.points += len(sub)
				}
				timed(tr, bspan, "explain.consume", &consume, len(sub), func() { exp[s].Consume(labeled[s]) })
				for _, lp := range labeled[s] {
					if lp.Label == core.Outlier {
						out.outliers++
					}
				}
				for sinceDecay[s] += len(sub); sinceDecay[s] >= cfg.DecayEveryPoints; sinceDecay[s] -= cfg.DecayEveryPoints {
					out.decayTicks++
					cls[s].Decay()
					timed(tr, bspan, "explain.decay", &decay, 0, exp[s].Decay)
				}
			}
		}
		tr.end(bspan)

		if (f+1)%(n/replayPolls) == 0 {
			pspan := tr.begin(root, "replay.poll")
			snaps := make([]*explain.Streaming, sp.shards)
			timed(tr, pspan, "explain.snapshot", &snapshot, 0, func() {
				for s := range exp {
					snaps[s] = exp[s].SnapshotClone()
				}
			})
			var merged *explain.Streaming
			timed(tr, pspan, "explain.merge", &merge, 0, func() {
				merged = snaps[0].Clone()
				for _, other := range snaps[1:] {
					merged.Merge(other)
				}
			})
			timed(tr, pspan, "explain.rank", &rank, 0, func() { merged.Explanations() })
			tr.end(pspan)
		}
	}

	// A retrain batch also scores its points; what remains after the
	// retrain-free rate is the retrain itself.
	var retrainMs []float64
	for _, r := range retrains {
		retrainMs = append(retrainMs, r.ms-float64(r.points)*score.nsPerPoint()/1e6)
	}
	fitMs := 0.0
	if dims > 1 {
		sample := make([][]float64, 0, cfg.ReservoirSize)
		for i := 0; i < min(cfg.ReservoirSize, len(in.points)); i++ {
			sample = append(sample, in.points[i].Metrics)
		}
		var fit stage
		var fitErr error
		timed(tr, root, "mcd.fit", &fit, 0, func() { _, fitErr = mcd.Fit(sample, mcd.Config{}) })
		if fitErr != nil {
			return nil, fmt.Errorf("mcd.Fit on a reservoir-sized sample: %w", fitErr)
		}
		fitMs = fit.calls[0]
	}

	points := float64(n * sp.framePoints)
	pollMs := median(snapshot.calls) + median(merge.calls) + median(rank.calls)
	perPoint := float64(decode.ns+route.ns+score.ns+retrain.ns+consume.ns+decay.ns)/points +
		pollMs*1e6/float64(sp.pollEvery*sp.framePoints)
	out.metrics = map[string]float64{
		"ingest.decode_ns_per_point":   decode.nsPerPoint(),
		"encode.intern_ns_per_point":   intern.nsPerPoint(),
		"encode.dict_size":             float64(dictSize),
		"core.route_ns_per_point":      route.nsPerPoint(),
		"classify.score_ns_per_point":  score.nsPerPoint(),
		"classify.retrain_count":       float64(retrainCount),
		"classify.retrain_p50_ms":      median(retrainMs),
		"mcd.fit_ms":                   fitMs,
		"explain.consume_ns_per_point": consume.nsPerPoint(),
		"explain.decay_ms":             median(decay.calls),
		"explain.snapshot_ms":          median(snapshot.calls),
		"explain.merge_ms":             median(merge.calls),
		"explain.rank_ms":              median(rank.calls),
		"trace.stage_sum_ns_per_point": perPoint,
	}
	return out, nil
}

// replayBatch walks the first stored CSV through the one-shot path's public
// functions, as handleQuery and pipeline.RunOneShot chain them.
func replayBatch(in *inputs, tr *tracer) (map[string]float64, error) {
	root := tr.begin(0, "replay:"+in.sp.name)
	defer tr.end(root)
	f, err := os.Open(in.csvPaths[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := ingest.NewCSVSource(f, in.schema(), encode.NewEncoder(in.attrs...))
	if err != nil {
		return nil, err
	}
	var csv, fit, score, expl stage
	var pts []core.Point
	for err == nil {
		var b []core.Point
		timed(tr, root, "ingest.csv", &csv, 0, func() { b, err = src.Next(8192) })
		pts = append(pts, b...)
	}
	if !errors.Is(err, core.ErrEndOfStream) {
		return nil, err
	}
	csv.points = len(pts)

	var fitted *classify.Fitted
	timed(tr, root, "classify.fit_batch", &fit, 0, func() {
		fitted, _, err = classify.FitBatch(pts, classify.AutoTrainer(len(in.metrics), 0), classify.FitBatchConfig{})
	})
	if err != nil {
		return nil, err
	}
	var labeled []core.LabeledPoint
	timed(tr, root, "classify.batch_score", &score, len(pts), func() {
		labeled = fitted.ClassifyBatch(make([]core.LabeledPoint, 0, len(pts)), pts)
	})
	timed(tr, root, "explain.batch", &expl, 0, func() { explain.ExplainBatch(labeled, explain.BatchConfig{}) })

	return map[string]float64{
		"ingest.csv_ns_per_point":           csv.nsPerPoint(),
		"classify.fit_batch_ms":             fit.calls[0],
		"classify.batch_score_ns_per_point": score.nsPerPoint(),
		"explain.batch_ms":                  expl.calls[0],
		"trace.stage_sum_ns_per_point":      float64(csv.ns+fit.ns+score.ns+expl.ns) / float64(len(pts)),
	}, nil
}
