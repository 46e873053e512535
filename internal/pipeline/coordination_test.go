package pipeline

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/ingest"
)

// hotShardStream is the firehose scenario distilled into a
// deterministic workload: one device+version pair ({107, 3}) drains
// abnormally in ~7% of the stream, and because the hash router sends a
// full attribute set to a single shard, every one of those points
// lands on the same shard. Background traffic is 200 devices x 3
// versions of N(10, 2) readings; the anomaly reads N(45, 5).
func hotShardStream(n int) []core.Point {
	rng := rand.New(rand.NewPCG(1234, 5678))
	pts := make([]core.Point, 0, n)
	for i := 0; i < n; i++ {
		var dev, ver int32
		var drain float64
		if rng.Float64() < 0.07 {
			dev, ver = 107, 3
			drain = 45 + rng.NormFloat64()*5
		} else {
			dev = int32(100 + rng.IntN(200))
			ver = int32(1 + rng.IntN(3))
			if dev == 107 && ver == 3 {
				dev = 108 // keep the anomaly set pure
			}
			drain = 10 + rng.NormFloat64()*2
		}
		pts = append(pts, core.Point{Metrics: []float64{drain}, Attrs: []int32{dev, ver}})
	}
	return pts
}

// findExplanationWith returns the first explanation mentioning item id.
func findExplanationWith(exps []core.Explanation, id int32) *core.Explanation {
	for i := range exps {
		for _, it := range exps[i].ItemIDs {
			if it == id {
				return &exps[i]
			}
		}
	}
	return nil
}

// roundPacedSource serves a stream to a sharded session so that every
// coordination round finds the shards where the point count says they
// are, run after run. Rounds are triggered at point boundaries but run
// whenever the coordinator goroutine gets there, while ingest carries on:
// left alone, an 80K-point slice is through in ~40 ms and anything from
// 2 to 7 of its 16 rounds happen. So the source never lets a read
// straddle a boundary: it holds the one point that crosses it until the
// workers have consumed everything before it, and holds what follows
// until that point is consumed too and its round has been applied.
// "Consumed" counts what a quarantined shard drained and dropped, and a
// round is the coordinator's pass over the boundary, which on a run
// without threshold coordination is its rebalance check alone.
type roundPacedSource struct {
	t      *testing.T
	src    *core.SliceSource
	every  int // the session's CoordinateEvery
	sess   chan *StreamSession
	runner *core.StreamRunner
	served int
}

func (p *roundPacedSource) Partitions() []core.PartitionStream { return []core.PartitionStream{p} }

func (p *roundPacedSource) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if p.runner == nil {
		p.runner = (<-p.sess).runner
	}
	switch left := p.every - p.served%p.every; {
	case left == 1:
		p.await("the workers to reach the boundary", func() bool { return p.consumed() == p.served })
		max = 1
	case left == p.every && p.served > 0:
		p.await("the boundary's coordination round", func() bool {
			return p.consumed() == p.served && p.runner.Stats().CoordPasses >= p.served/p.every
		})
		fallthrough
	default:
		max = min(max, left-1)
	}
	b, err := p.src.NextBatchInto(ctx, dst, max)
	if err == nil {
		p.served += b.Len()
	}
	return b, err
}

func (p *roundPacedSource) consumed() int {
	st := p.runner.Stats()
	n := 0
	for _, s := range st.PerShard {
		n += s.Points
	}
	for _, f := range st.ShardFailures {
		n += int(f.DroppedPoints)
	}
	return n
}

// await polls cond, failing the test (and letting the stream go on
// unpaced) if it does not hold within ten seconds.
func (p *roundPacedSource) await(what string, cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			p.t.Errorf("timed out after %d points waiting for %s", p.served, what)
			p.every = math.MaxInt
			return
		}
	}
}

// runRoundPaced is RunPartitionedStream over a roundPacedSource.
func runRoundPaced(t *testing.T, pts []core.Point, cfg Config, shards int) *ShardedResult {
	t.Helper()
	src := &roundPacedSource{t: t, src: core.NewSliceSource(pts), every: cfg.CoordinateEvery, sess: make(chan *StreamSession, 1)}
	sess, err := StartPartitionedStream(src, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	src.sess <- sess
	<-sess.done
	res, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGlobalThresholdFixesHotShardDrift is the regression test for the
// skew-induced answer drift (ISSUE 6): an anomaly at ~7% of the stream
// concentrated on one shard inflates that shard's local 99th-percentile
// cutoff, so most anomalous points are labeled inliers there while the
// other shards keep labeling ~1% of clean background as outliers —
// dragging the merged risk ratio for the anomaly under any serious
// reporting threshold. Cross-shard coordination replaces the per-shard
// cutoffs with the pooled quantile a single pipeline would have used:
// the background shards' outliers vanish, the anomaly's survive, and
// the merged explanation reports the device again.
func TestGlobalThresholdFixesHotShardDrift(t *testing.T) {
	pts := hotShardStream(80_000)
	const shards = 4
	cfg := Config{
		Dims:            1,
		MinSupport:      0.05,
		MinRiskRatio:    10, // the discriminator: global cutoff clears it by a mile, per-shard cutoffs fall well short
		CoordinateEvery: 5_000,
		// The router stays on at the default trigger and its rebalance
		// check rides every boundary. On this stream it must not fire
		// (the hot shard carries 1.21x its share, the trigger is 1.5x),
		// and a moved hot bucket would change both runs' answers; a check
		// that lands a few points after the previous one does not judge
		// that window (core's maybeRebalance waits for half a cadence).
		Seed: 17,
	}

	// Every one of the 16 rounds is applied at its boundary: the run is
	// the same run every time (risk ratio 1636.6, support 0.992).
	coordinated := runRoundPaced(t, pts, cfg, shards)
	if e := findExplanationWith(coordinated.Explanations, 107); e == nil {
		t.Errorf("coordinated run lost the planted anomaly: %d explanations, none mentioning device 107", len(coordinated.Explanations))
	} else {
		t.Logf("coordinated: anomaly reported with risk ratio %.1f, support %.3f", e.RiskRatio, e.Support)
	}
	if coordinated.Stats.CoordRounds == 0 {
		t.Error("coordinated run completed zero coordination rounds")
	}

	// The breakdown must make the skew visible: the anomaly shard holds
	// its hash share of background plus the whole anomaly, so it is the
	// hot shard by a wide margin.
	b := coordinated.Shards
	if b == nil {
		t.Fatal("coordinated run has no shard breakdown")
	}
	if !b.Coordinated || b.CoordRounds == 0 {
		t.Errorf("breakdown does not reflect coordination: %+v", b)
	}
	if math.IsNaN(b.GlobalCutoff) {
		t.Error("no global cutoff recorded after coordination rounds")
	}
	if b.HotShard < 0 || b.Imbalance <= 1.1 {
		t.Errorf("skew not visible in breakdown: hot shard %d, imbalance %.2f", b.HotShard, b.Imbalance)
	}

	// Same stream, coordination off: the documented drift. The anomaly
	// must NOT clear MinRiskRatio=10 — that asymmetry is the bug this
	// PR fixes, kept here as the failure baseline.
	dcfg := cfg
	dcfg.DisableGlobalThreshold = true
	drifted, err := RunPartitionedStream(core.NewSliceSource(pts), dcfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Stats.CoordRounds != 0 {
		t.Errorf("DisableGlobalThreshold ran %d coordination rounds", drifted.Stats.CoordRounds)
	}
	if e := findExplanationWith(drifted.Explanations, 107); e != nil {
		t.Errorf("per-shard thresholds unexpectedly reported the anomaly (risk ratio %.1f) — the skew bug this test pins may have changed shape", e.RiskRatio)
	} else {
		// Document the drift numbers: per-shard outlier spread and the
		// thresholds that caused it.
		for i, s := range drifted.Shards.PerShard {
			t.Logf("drifted shard %d: %d points, %d outliers (rate %.4f), local threshold %.2f",
				i, s.Points, s.Outliers, s.OutlierRate, s.Threshold)
		}
		t.Logf("drifted: %d explanations, anomaly absent under MinRiskRatio=%v", len(drifted.Explanations), dcfg.MinRiskRatio)
	}
}

// TestCoordinationEmptyReservoirShard: when every point carries the
// same attribute set, the hash router starves all but one shard — their
// classifiers never train and their score reservoirs stay empty.
// Coordination rounds must still complete (empty summaries merge to
// "skip nothing useful" rather than poisoning the pooled quantile), and
// the breakdown must show the total imbalance.
func TestCoordinationEmptyReservoirShard(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	pts := make([]core.Point, 10_000)
	for i := range pts {
		pts[i] = core.Point{Metrics: []float64{10 + rng.NormFloat64()*2}, Attrs: []int32{42}}
	}
	const shards = 4
	cfg := Config{Dims: 1, MinSupport: 0.01, CoordinateEvery: 2_000, Seed: 3}
	res, err := RunPartitionedStream(core.NewSliceSource(pts), cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CoordRounds == 0 {
		t.Error("no coordination rounds completed with one hot shard")
	}
	b := res.Shards
	if b == nil {
		t.Fatal("no shard breakdown")
	}
	if want := float64(shards); math.Abs(b.Imbalance-want) > 1e-9 {
		t.Errorf("imbalance %.3f, want %v (all load on one shard)", b.Imbalance, want)
	}
	loaded := 0
	for _, s := range b.PerShard {
		if s.Points > 0 {
			loaded++
		}
	}
	if loaded != 1 {
		t.Errorf("%d shards loaded, want exactly 1", loaded)
	}
}

// TestCoordinationDuringDecayTicks: decay ticks and coordination rounds
// interleave on deliberately co-prime periods; the run must complete
// with both mechanisms having fired.
func TestCoordinationDuringDecayTicks(t *testing.T) {
	pts := hotShardStream(30_000)
	cfg := Config{Dims: 1, MinSupport: 0.05, DecayEveryPoints: 2_000, CoordinateEvery: 1_500, Seed: 11}
	res, err := RunPartitionedStream(core.NewSliceSource(pts), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DecayTicks == 0 {
		t.Error("no decay ticks fired")
	}
	if res.Stats.CoordRounds == 0 {
		t.Error("no coordination rounds fired")
	}
}

// TestCoordinationRaceHammer drives the full concurrent surface at
// once — push producers, the coordinator, and concurrent pollers — so
// the race detector can chew on the control-plane interleavings
// (coordination requests and snapshot requests share the worker snap
// channels).
func TestCoordinationRaceHammer(t *testing.T) {
	const (
		partitions = 3
		shards     = 4
		perPart    = 12_000
	)
	pts := hotShardStream(partitions * perPart)
	src := ingest.NewPush(partitions, 2)
	cfg := Config{Dims: 1, MinSupport: 0.05, CoordinateEvery: 512, BatchSize: 1024, Seed: 29}
	sess, err := StartPartitionedStream(src, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < partitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pr := src.Producer(p)
			ctx := context.Background()
			part := pts[p*perPart : (p+1)*perPart]
			for off := 0; off < len(part); off += 1024 {
				end := min(off+1024, len(part))
				if err := pr.Send(ctx, part[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			pr.Close()
		}(p)
	}
	pollDone := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-pollDone:
					return
				default:
				}
				if _, err := sess.Poll(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Let producers finish, then stop the pollers and the session.
	for !sess.Done() {
		time.Sleep(2 * time.Millisecond)
	}
	close(pollDone)
	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if final.Stats.Points != partitions*perPart {
		t.Errorf("final points %d, want %d", final.Stats.Points, partitions*perPart)
	}
	if final.Stats.CoordRounds == 0 {
		t.Error("no coordination rounds under the hammer")
	}
	if final.Shards == nil {
		t.Error("final result has no shard breakdown")
	}
}

// TestOneShardCoordinationIsInert: with a single shard there is nothing
// to coordinate — one pipeline already computes the global quantile —
// so even an aggressive CoordinateEvery must leave execution bit-exact
// with the sequential runner (the P=1 equivalence golden).
func TestOneShardCoordinationIsInert(t *testing.T) {
	pts := hotShardStream(20_000)
	cfg := Config{Dims: 1, MinSupport: 0.05, CoordinateEvery: 1_000, Seed: 13}

	seq, err := RunStreaming(core.NewSliceSource(pts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunPartitionedStream(core.NewSliceSource(pts), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Stats.CoordRounds != 0 {
		t.Errorf("P=1 ran %d coordination rounds", sharded.Stats.CoordRounds)
	}
	if sharded.Shards == nil || sharded.Shards.Coordinated {
		t.Errorf("P=1 breakdown should report coordination off: %+v", sharded.Shards)
	}
	if sharded.Stats.Outliers != seq.Stats.Outliers || sharded.Stats.Points != seq.Stats.Points {
		t.Errorf("P=1 stats diverge from sequential: %+v vs %+v", sharded.Stats.RunStats, seq.Stats)
	}
	requireIdenticalRanked(t, "P=1 vs sequential", sharded.Explanations, seq.Explanations)
}
