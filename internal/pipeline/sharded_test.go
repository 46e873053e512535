package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// sequentialEWS is the test oracle for streaming execution: one shard's
// MDP operators (newShardPipeline) run over batches in order by a plain
// loop, with no engine — classify each batch, hand the labels to the
// explainer, and tick decay every DecayEveryPoints points, carrying the
// remainder across batches. cfg must have its defaults applied.
func sequentialEWS(cfg Config, shard, shards int, batches [][]core.Point) (core.RunStats, *explain.Streaming) {
	pl := newShardPipeline(cfg, shard, shards)
	var stats core.RunStats
	var labels []core.LabeledPoint
	since := 0
	for _, b := range batches {
		stats.Points += len(b)
		labels = pl.Classifier.ClassifyBatch(labels[:0], b)
		for i := range labels {
			if labels[i].Label == core.Outlier {
				stats.Outliers++
			}
		}
		pl.Explainer.Consume(labels)
		for since += len(b); since >= cfg.DecayEveryPoints; since -= cfg.DecayEveryPoints {
			stats.DecayTicks++
			pl.Classifier.(core.Decayable).Decay()
			pl.Explainer.(core.Decayable).Decay()
		}
	}
	return stats, pl.Explainer.(*explain.Streaming)
}

func shardKey(ids []int32) string {
	cp := append([]int32(nil), ids...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	b := make([]byte, 0, len(cp)*4)
	for _, id := range cp {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// requireSameExplanations asserts two explanation sets are identical in
// membership and statistics.
func requireSameExplanations(t *testing.T, label string, a, b []core.Explanation) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d explanations", label, len(a), len(b))
	}
	bm := make(map[string]core.Explanation, len(b))
	for _, e := range b {
		bm[shardKey(e.ItemIDs)] = e
	}
	for _, e := range a {
		w, ok := bm[shardKey(e.ItemIDs)]
		if !ok {
			t.Errorf("%s: explanation %v missing from second set", label, e.ItemIDs)
			continue
		}
		if math.Abs(e.OutlierCount-w.OutlierCount) > 1e-9 ||
			math.Abs(e.InlierCount-w.InlierCount) > 1e-9 ||
			math.Abs(e.RiskRatio-w.RiskRatio) > 1e-9 {
			t.Errorf("%s: items %v stats differ: (%v,%v,%v) vs (%v,%v,%v)", label, e.ItemIDs,
				e.OutlierCount, e.InlierCount, e.RiskRatio, w.OutlierCount, w.InlierCount, w.RiskRatio)
		}
	}
}

// TestShardedStreamOneShardMatchesSequential: RunStreaming, the
// one-shard engine, must reproduce the sequential oracle exactly — same
// stats, same explanations, bit-identical statistics per explanation.
func TestShardedStreamOneShardMatchesSequential(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 120_000, Devices: 800, Seed: 42})
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 20_000, Seed: 7}

	res, err := RunStreaming(core.NewSliceSource(d.Points), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg.withDefaults()
	var batches [][]core.Point
	for off := 0; off < len(d.Points); off += pcfg.batchSize {
		batches = append(batches, d.Points[off:min(off+pcfg.batchSize, len(d.Points))])
	}
	stats, seq := sequentialEWS(pcfg, 0, 1, batches)
	if res.Stats != stats {
		t.Errorf("stats differ: RunStreaming %+v sequential %+v", res.Stats, stats)
	}
	want := seq.Explanations()
	if len(want) == 0 {
		t.Fatal("the sequential oracle found no explanations")
	}
	if len(res.Explanations) != len(want) {
		t.Fatalf("%d explanations, sequential %d", len(res.Explanations), len(want))
	}
	wm := make(map[string]core.Explanation, len(want))
	for _, e := range want {
		wm[shardKey(e.ItemIDs)] = e
	}
	for _, e := range res.Explanations {
		w, ok := wm[shardKey(e.ItemIDs)]
		if !ok {
			t.Errorf("explanation %v missing from the sequential set", e.ItemIDs)
			continue
		}
		if e.Support != w.Support || e.OutlierCount != w.OutlierCount || e.InlierCount != w.InlierCount || e.RiskRatio != w.RiskRatio {
			t.Errorf("items %v: (%v,%v,%v,%v), sequential (%v,%v,%v,%v)", e.ItemIDs,
				e.Support, e.OutlierCount, e.InlierCount, e.RiskRatio, w.Support, w.OutlierCount, w.InlierCount, w.RiskRatio)
		}
	}
}

// TestShardedStreamMatchesManualPartition: P>1 execution must agree
// with manually splitting the stream by the same hash router, running
// the sequential oracle once per shard with the shard seeds, and merging their
// summaries — the union semantics of Figure 11's shared-nothing
// scale-out, lifted to summary-level merging. Threshold coordination is disabled: the
// manual baseline is P independent pipelines with per-shard cutoffs,
// and coordination rounds fire asynchronously, so the coordinated run
// would (correctly) diverge from it. This is the bit-exact-equivalence
// golden for DisableGlobalThreshold.
func TestShardedStreamMatchesManualPartition(t *testing.T) {
	const shards = 3
	d := gen.Devices(gen.DeviceConfig{Points: 90_000, Devices: 600, Seed: 11})
	// DisableRebalance pins HashPartition placement for the whole run:
	// the manual baseline below splits the stream by the static hash,
	// and a routing epoch would (correctly) move attribute sets away
	// from it. This is also the bit-exact golden for DisableRebalance.
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 15_000, Seed: 3, DisableGlobalThreshold: true, DisableRebalance: true}

	sharded, err := RunPartitionedStream(core.NewSliceSource(d.Points), cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Manual shared-nothing execution over the same partitions, with
	// the same sub-batch boundaries the engine produces: the ingest
	// loop reads batchSize points and routes each batch's points, so
	// each shard sees one sub-batch per source batch. Decay ticks land
	// on batch boundaries, so boundary fidelity is what makes the
	// comparison exact.
	pcfg := cfg.withDefaults()
	parts := make([][][]core.Point, shards)
	for off := 0; off < len(d.Points); off += pcfg.batchSize {
		end := off + pcfg.batchSize
		if end > len(d.Points) {
			end = len(d.Points)
		}
		subs := make([][]core.Point, shards)
		for i := off; i < end; i++ {
			s := core.HashPartition(&d.Points[i], shards)
			subs[s] = append(subs[s], d.Points[i])
		}
		for s := range subs {
			if len(subs[s]) > 0 {
				parts[s] = append(parts[s], subs[s])
			}
		}
	}
	explainers := make([]*explain.Streaming, shards)
	for s := 0; s < shards; s++ {
		_, explainers[s] = sequentialEWS(pcfg, s, shards, parts[s])
	}
	manual := explain.MergeStreamingInto(explainers)
	requireSameExplanations(t, "P=3 vs manual partition", sharded.Explanations, manual)
}

// TestShardedStreamRecoversPlantedDevices: accuracy end-to-end — the
// sharded engine must still surface the planted outlier devices.
func TestShardedStreamRecoversPlantedDevices(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 200_000, Devices: 1000, Seed: 5})
	cfg := Config{Dims: 1, MinSupport: 0.001, DecayEveryPoints: 50_000, Seed: 9}
	res, err := RunPartitionedStream(core.NewSliceSource(d.Points), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := map[int32]bool{}
	for _, e := range res.Explanations {
		for _, id := range e.ItemIDs {
			rec[id] = true
		}
	}
	_, recall, f1 := d.ExplanationF1(rec)
	if recall < 0.9 {
		t.Errorf("sharded recall %.3f < 0.9 (f1 %.3f, %d explanations)", recall, f1, len(res.Explanations))
	}
}

// TestShardedStreamValidation covers the shard counts streaming
// execution must reject, through the batch and session entry points.
func TestShardedStreamValidation(t *testing.T) {
	src := core.NewSliceSource(nil)
	if _, err := RunPartitionedStream(src, Config{Dims: 1}, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := StartPartitionedStream(src, Config{Dims: 1}, -1); err == nil {
		t.Error("session with negative shards accepted")
	}
}

// TestStreamSessionLifecycle drives start/poll/stop over an unbounded
// generator stream and checks monotone progress and a final result.
func TestStreamSessionLifecycle(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 50_000, Devices: 400, Seed: 13})
	// Loop the generated points forever: an unbounded stream.
	i := 0
	src := core.NewFuncSource(2048, func(dst []core.Point) int {
		for j := range dst {
			dst[j] = d.Points[i%len(d.Points)]
			i++
		}
		return len(dst)
	})
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 10_000, Seed: 1}
	sess, err := StartPartitionedStream(src, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Done() {
		t.Error("session done before stop")
	}
	var sawPoints int
	for polls := 0; polls < 3; polls++ {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points < sawPoints {
			t.Errorf("points went backwards: %d -> %d", sawPoints, res.Stats.Points)
		}
		sawPoints = res.Stats.Points
	}
	// On a multi-core box the three polls above can land before the
	// first batch is even routed; wait for the stream to warm up so the
	// final reconciliation below has real state to report.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream produced no explanations before stop")
		}
	}
	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if final.Stats.Points == 0 {
		t.Error("final stats empty")
	}
	if len(final.Explanations) == 0 {
		t.Error("final result has no explanations")
	}
	// Stop is idempotent; post-stop polls return the final result.
	again, err := sess.Stop()
	if err != nil || again != final {
		t.Errorf("second stop: (%p, %v), want (%p, nil)", again, err, final)
	}
	polled, err := sess.Poll()
	if err != nil || polled != final {
		t.Errorf("post-stop poll: (%p, %v), want final", polled, err)
	}
}

// errAfterSource yields n good batches, then a terminal error.
type errAfterSource struct {
	batches int
	err     error
}

func (s *errAfterSource) Partitions() []core.PartitionStream { return []core.PartitionStream{s} }

func (s *errAfterSource) NextBatchInto(_ context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if s.batches <= 0 {
		return nil, s.err
	}
	s.batches--
	for i := 0; i < max; i++ {
		dst.Append([]float64{1}, []int32{int32(i % 7)}, 0)
	}
	return dst, nil
}

// TestStreamSessionSourceError surfaces ingest errors through Stop.
func TestStreamSessionSourceError(t *testing.T) {
	boom := errors.New("boom")
	sess, err := StartPartitionedStream(&errAfterSource{batches: 2, err: boom}, Config{Dims: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Let the error surface on its own (a premature Stop would win the
	// race and report a clean stop instead).
	deadline := time.Now().Add(5 * time.Second)
	for !sess.Done() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !sess.Done() {
		t.Fatal("session did not terminate on source error")
	}
	if _, err := sess.Stop(); !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
}

// TestLivePollEqualsFinal: a live poll and the final result are built
// by one function from the same account, so once every pushed point is
// consumed a poll reads what the final result reads — run and per-shard
// statistics, committed offsets, the source's cumulative ingest
// counters, the skew breakdown, the ranked explanations. The one-shard
// case runs MDP's own classifier, whose threshold the breakdown
// reports; the two-shard case pins routing, and its classifier exposes
// no threshold, so no coordination round changes state. Neither stream
// is long enough to retrain a classifier after its warmup fit, so the
// polls compared are not served mid-batch (core.Offloader).
func TestLivePollEqualsFinal(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 12_000, Devices: 300, Seed: 41})
	for _, tc := range []struct {
		name   string
		shards int
		cfg    Config
	}{
		{"one shard, MDP classifier", 1, Config{Dims: 1, MinSupport: 0.01, DecayEveryPoints: 2_000, batchSize: 512, Seed: 3}},
		{"two shards, pinned routing", 2, Config{Dims: 1, MinSupport: 0.01, DecayEveryPoints: 2_000, batchSize: 512, DisableRebalance: true,
			newClassifier: func(int) core.Classifier { return &cutClassifier{cut: 40} }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := ingest.NewPush(1)
			sess, err := StartPartitionedStream(p, tc.cfg, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			pr := p.Producer(0)
			for _, b := range chunk(d.Points, tc.cfg.batchSize) {
				if err := pr.Send(context.Background(), b); err != nil {
					t.Fatal(err)
				}
			}
			// Once the shards have taken in every point, the next poll's
			// snapshot is served after the last batch.
			deadline := time.Now().Add(30 * time.Second)
			for taken := 0; taken != len(d.Points); {
				res, err := sess.Poll()
				if err != nil {
					t.Fatal(err)
				}
				taken = 0
				for _, s := range res.Shards.PerShard {
					taken += s.Points
				}
				if time.Now().After(deadline) {
					t.Fatalf("shards took in %d of %d points", taken, len(d.Points))
				}
			}
			live, err := sess.Poll()
			if err != nil {
				t.Fatal(err)
			}
			pr.Close()
			waitDone(t, sess)
			final, err := sess.Poll()
			if err != nil {
				t.Fatal(err)
			}
			if live.Stats.RunStats != final.Stats.RunStats {
				t.Errorf("run stats: live %+v, final %+v", live.Stats.RunStats, final.Stats.RunStats)
			}
			if !reflect.DeepEqual(live.Stats.PerShard, final.Stats.PerShard) {
				t.Errorf("per-shard stats: live %+v, final %+v", live.Stats.PerShard, final.Stats.PerShard)
			}
			if want := []int64{int64(len(d.Points))}; !reflect.DeepEqual(live.Stats.Committed, want) || !reflect.DeepEqual(final.Stats.Committed, want) {
				t.Errorf("committed: live %v, final %v, want %v", live.Stats.Committed, final.Stats.Committed, want)
			}
			// Queued and the windowed rates are instantaneous gauges; the
			// cumulative counters must agree.
			cumulative := func(in []core.PartitionIngestStats) []core.PartitionIngestStats {
				out := make([]core.PartitionIngestStats, len(in))
				for i, p := range in {
					out[i] = core.PartitionIngestStats{Batches: p.Batches, Points: p.Points, BlockedNanos: p.BlockedNanos}
				}
				return out
			}
			if li, fi := cumulative(live.Stats.Ingest), cumulative(final.Stats.Ingest); len(li) != 1 || li[0].Points != int64(len(d.Points)) || !reflect.DeepEqual(li, fi) {
				t.Errorf("ingest counters: live %+v, final %+v", live.Stats.Ingest, final.Stats.Ingest)
			}
			// JSON, because a threshold may be NaN (the wire's null).
			lb, _ := json.Marshal(live.Shards)
			fb, _ := json.Marshal(final.Shards)
			if string(lb) != string(fb) {
				t.Errorf("breakdown:\n live %s\nfinal %s", lb, fb)
			}
			if len(final.Explanations) == 0 {
				t.Fatal("no explanations to compare")
			}
			requireIdenticalRanked(t, "live vs final", live.Explanations, final.Explanations)
		})
	}
}
