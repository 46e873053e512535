package pipeline

import (
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/gen"
)

// batchSource replays recorded sub-batches one per Next call,
// reproducing the engine's exact batch boundaries.
type batchSource struct {
	batches [][]core.Point
	i       int
}

func (s *batchSource) Next(max int) ([]core.Point, error) {
	if s.i >= len(s.batches) {
		return nil, core.ErrEndOfStream
	}
	b := s.batches[s.i]
	s.i++
	return b, nil
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

// TestShardedStreamOneShardMatchesSequential: P=1 sharded execution
// must reproduce the sequential EWS pipeline exactly — same stats,
// same explanations, same statistics per explanation.
func TestShardedStreamOneShardMatchesSequential(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 120_000, Devices: 800, Seed: 42})
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 20_000, Seed: 7}

	seq, err := RunStreaming(core.NewSliceSource(d.Points), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunShardedStream(core.NewSliceSource(d.Points), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Stats.Points != seq.Stats.Points ||
		sharded.Stats.OutPoints != seq.Stats.OutPoints ||
		sharded.Stats.Outliers != seq.Stats.Outliers ||
		sharded.Stats.DecayTicks != seq.Stats.DecayTicks {
		t.Errorf("stats differ: sharded %+v sequential %+v", sharded.Stats.RunStats, seq.Stats)
	}
	requireSameExplanations(t, "P=1 vs sequential", sharded.Explanations, seq.Explanations)
}

// TestShardedStreamMatchesManualPartition: P>1 execution must agree
// with manually splitting the stream by the same hash router, running
// P sequential EWS pipelines with the shard seeds, and merging their
// summaries — the union semantics RunParallel established, lifted to
// summary-level merging. Threshold coordination is disabled: the
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

	sharded, err := RunShardedStream(core.NewSliceSource(d.Points), cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Manual shared-nothing execution over the same partitions, with
	// the same sub-batch boundaries the engine produces: the ingest
	// loop reads BatchSize points and routes each batch's points, so
	// each shard sees one sub-batch per source batch. Decay ticks land
	// on batch boundaries, so boundary fidelity is what makes the
	// comparison exact.
	pcfg := cfg.withDefaults()
	parts := make([][][]core.Point, shards)
	for off := 0; off < len(d.Points); off += pcfg.BatchSize {
		end := off + pcfg.BatchSize
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
		pl := newShardPipeline(pcfg, s, shards)
		r := core.Runner{
			Source:     &batchSource{batches: parts[s]},
			Classifier: pl.Classifier,
			Explainer:  pl.Explainer,
			BatchSize:  pcfg.BatchSize,
			Decay:      core.DecayPolicy{EveryPoints: pcfg.DecayEveryPoints},
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		explainers[s] = pl.Explainer.(*explain.Streaming).Clone()
	}
	manual := explain.MergeStreamingInto(explainers)
	requireSameExplanations(t, "P=3 vs manual partition", sharded.Explanations, manual)
}

// TestShardedStreamRecoversPlantedDevices: accuracy end-to-end — the
// sharded engine must still surface the planted outlier devices.
func TestShardedStreamRecoversPlantedDevices(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 200_000, Devices: 1000, Seed: 5})
	cfg := Config{Dims: 1, MinSupport: 0.001, DecayEveryPoints: 50_000, Seed: 9}
	res, err := RunShardedStream(core.NewSliceSource(d.Points), cfg, 4)
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

// TestShardedStreamValidation covers the configurations sharded
// execution must reject.
func TestShardedStreamValidation(t *testing.T) {
	src := core.NewSliceSource(nil)
	if _, err := RunShardedStream(src, Config{Dims: 1}, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := RunShardedStream(src, Config{Dims: 1, Classifier: &projectingClassifier{}}, 2); err == nil {
		t.Error("shared classifier instance accepted for 2 shards")
	}
	if _, err := RunShardedStream(src, Config{Dims: 1, Transforms: []core.Transformer{core.TransformFunc(nil)}}, 2); err == nil {
		t.Error("shared transform instance accepted for 2 shards")
	}
	if _, err := RunShardedStream(src, Config{Dims: 1, Trainer: func([][]float64) (classify.Scorer, error) { return nil, nil }}, 2); err == nil {
		t.Error("shared trainer accepted for 2 shards")
	}
	if _, err := StartShardedStream(src, Config{Dims: 1}, -1); err == nil {
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
	sess, err := StartShardedStream(src, cfg, 2)
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

func (s *errAfterSource) Next(max int) ([]core.Point, error) {
	if s.batches <= 0 {
		return nil, s.err
	}
	s.batches--
	pts := make([]core.Point, max)
	for i := range pts {
		pts[i] = core.Point{Metrics: []float64{1}, Attrs: []int32{int32(i % 7)}}
	}
	return pts, nil
}

// TestStreamSessionSourceError surfaces ingest errors through Stop.
func TestStreamSessionSourceError(t *testing.T) {
	boom := errors.New("boom")
	sess, err := StartShardedStream(&errAfterSource{batches: 2, err: boom}, Config{Dims: 1}, 2)
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
