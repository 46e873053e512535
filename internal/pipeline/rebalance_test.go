package pipeline

import (
	"context"
	"sync"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// skewedConfig is the order-insensitive configuration the rebalancing
// differentials run under: deterministic stateless classification and
// no decay ticks, so the merged explanation set depends only on the
// point multiset each shard receives — which is exactly what a routing
// epoch changes — and an aggressive coordination cadence so rebalances
// fire early in a test-sized stream.
func skewedConfig(points int) Config {
	return Config{
		Dims:                   1,
		MinSupport:             0.005,
		batchSize:              2048,
		DecayEveryPoints:       points + 1,
		Seed:                   5,
		CoordinateEvery:        5_000,
		DisableGlobalThreshold: true,
		newClassifier:          func(int) core.Classifier { return &cutClassifier{cut: 40} },
	}
}

// TestRebalancedMatchesPinnedExplanations is the PR's acceptance
// differential: on a Zipf workload whose hot devices all hash to shard
// 0 of 4, the pinned run must show imbalance >= 2.5 while the
// rebalanced run converges below 1.3 — and the two runs' ranked
// explanation sets must be identical, because bucket moves only split
// where counts live, never what they sum to.
func TestRebalancedMatchesPinnedExplanations(t *testing.T) {
	const (
		nParts = 3
		shards = 4
	)
	d := gen.SkewedDevices(160_000, shards, 41)
	cfg := skewedConfig(len(d.Points))

	// Deal the stream round-robin across partitions in batch-sized
	// chunks, same layout for both runs.
	perPart := make([][][]core.Point, nParts)
	for i, b := range chunk(d.Points, cfg.batchSize) {
		perPart[i%nParts] = append(perPart[i%nParts], b)
	}

	run := func(cfg Config) *ShardedResult {
		t.Helper()
		p := ingest.NewPush(nParts)
		feedPush(t, p, perPart)
		res, err := RunPartitionedStream(p, cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards == nil {
			t.Fatal("no shard breakdown")
		}
		return res
	}

	pinnedCfg := cfg
	pinnedCfg.DisableRebalance = true
	pinned := run(pinnedCfg)

	// The rebalanced run paces ingest on the coordinator's observable
	// progress instead of racing it. Boundary signals coalesce by
	// design (the channel is buffered 1; rounds are periodic, not
	// queued), so on a fast multi-core box the whole 160k-point stream
	// can be routed under one or two late tables — and Imbalance is
	// cumulative, so the <1.3 convergence assertion below would then
	// measure scheduler luck, not the rebalancer. Feeding one
	// boundary's worth of points per wave and letting each wave's
	// consumption (and, while the router is still converging, its
	// bucket moves) land before the next restores the slow-ingest
	// interleaving the differential was designed around.
	p := ingest.NewPush(nParts)
	sess, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batches := chunk(d.Points, cfg.batchSize)
	deadline := time.Now().Add(60 * time.Second)
	fed := 0
	poll := func() *ShardedResult {
		if time.Now().After(deadline) {
			t.Fatalf("rebalanced run stalled (fed %d points)", fed)
		}
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var movesBefore, epochBefore int64
	for i := 0; i < len(batches); {
		wave := 0
		for ; i < len(batches) && wave <= cfg.CoordinateEvery; i++ {
			if err := p.Producer(i%nParts).Send(ctx, batches[i]); err != nil {
				t.Fatal(err)
			}
			wave += len(batches[i])
		}
		fed += wave
		// Wait for the wave to be consumed: per-shard counters bump at
		// consume start on the worker goroutines, so reaching the fed
		// total means every routing decision (and the wave's boundary
		// signal) already happened.
		var res *ShardedResult
		for {
			res = poll()
			consumed := 0
			if res.Shards != nil {
				for _, s := range res.Shards.PerShard {
					consumed += s.Points
				}
			}
			if consumed >= fed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		// While converging, wait for the signalled round to land — a
		// round over a still-skewed window always moves buckets. Once
		// tables settle, a converged round is indistinguishable from a
		// pending one, so a bounded grace period stands in.
		if wave > cfg.CoordinateEvery && epochBefore < 3 {
			grace := time.Now().Add(100 * time.Millisecond)
			for res.Stats.BucketMoves <= movesBefore && res.Stats.RoutingEpoch <= epochBefore {
				if time.Now().After(grace) {
					break
				}
				time.Sleep(time.Millisecond)
				res = poll()
			}
		}
		movesBefore, epochBefore = res.Stats.BucketMoves, res.Stats.RoutingEpoch
	}
	for part := 0; part < nParts; part++ {
		p.Producer(part).Close()
	}
	rebal, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if rebal.Shards == nil {
		t.Fatal("no shard breakdown")
	}

	if pinned.Shards.Rebalancing || pinned.Shards.RoutingEpoch != 0 || pinned.Shards.BucketMoves != 0 {
		t.Errorf("pinned run reports routing activity: %+v", pinned.Shards)
	}
	if pinned.Shards.Imbalance < 2.5 {
		t.Errorf("pinned imbalance %.2f, want >= 2.5 (workload not skewed enough)", pinned.Shards.Imbalance)
	}
	if !rebal.Shards.Rebalancing {
		t.Error("rebalanced run not marked rebalancing")
	}
	if rebal.Shards.RoutingEpoch < 1 || rebal.Shards.BucketMoves == 0 {
		t.Errorf("no routing epoch published: epoch=%d moves=%d", rebal.Shards.RoutingEpoch, rebal.Shards.BucketMoves)
	}
	if rebal.Shards.Imbalance >= 1.3 {
		t.Errorf("rebalanced imbalance %.2f, want < 1.3 (pinned was %.2f)", rebal.Shards.Imbalance, pinned.Shards.Imbalance)
	}
	if rebal.Stats.Points != pinned.Stats.Points || rebal.Stats.Outliers != pinned.Stats.Outliers {
		t.Errorf("stats differ: rebalanced %+v pinned %+v", rebal.Stats.RunStats, pinned.Stats.RunStats)
	}
	requireIdenticalRanked(t, "rebalanced vs pinned", rebal.Explanations, pinned.Explanations)
}

// TestRebalanceSpreadsAttrLessPoints pins the attribute-less hot-spot
// fix end to end: a stream that is half metrics-only points keeps its
// explanations identical with rebalancing on or off (the points carry
// no itemsets), and both runs spread them round-robin instead of
// pinning every one on shard 0.
func TestRebalanceSpreadsAttrLessPoints(t *testing.T) {
	const shards = 4
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 300, Seed: 19})
	pts := make([]core.Point, 0, 2*len(d.Points))
	for i := range d.Points {
		pts = append(pts, d.Points[i], core.Point{Metrics: []float64{10}, Time: d.Points[i].Time})
	}
	cfg := skewedConfig(len(pts))

	pinnedCfg := cfg
	pinnedCfg.DisableRebalance = true
	pinned, err := RunPartitionedStream(core.NewSliceSource(pts), pinnedCfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := RunPartitionedStream(core.NewSliceSource(pts), cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Both runs route through the table, which spreads attribute-less
	// points; pinning them all on shard 0 would read imbalance >= 2.
	if pinned.Shards.Imbalance >= 1.3 {
		t.Errorf("pinned attr-less imbalance %.2f, want < 1.3", pinned.Shards.Imbalance)
	}
	if routed.Shards.Imbalance >= 1.3 {
		t.Errorf("routed attr-less imbalance %.2f, want < 1.3", routed.Shards.Imbalance)
	}
	requireIdenticalRanked(t, "attr-less routed vs pinned", routed.Explanations, pinned.Explanations)
}

// TestRebalanceCheckpointResumeInterplay: routing epochs must not
// perturb the offset protocol — a session killed mid-stream with
// rebalancing active resumes into exactly the uncommitted suffix, and
// the resumed run (which re-coordinates its routing from scratch)
// still merges to the same explanations as a fresh run over that
// suffix.
func TestRebalanceCheckpointResumeInterplay(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.SkewedDevices(90_000, shards, 47)
	cfg := skewedConfig(len(d.Points))
	cfg.CoordinateEvery = 2_000
	flat, batched := splitParts(d.Points, nParts, cfg.batchSize)

	p := ingest.NewPush(nParts)
	p.EnableReplay()
	feedPush(t, p, batched)
	sess1, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Run until a routing epoch has been published and a third of the
	// stream is through, then kill.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess1.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points >= len(d.Points)/3 && res.Stats.RoutingEpoch >= 1 {
			if res.Shards != nil && !res.Shards.Rebalancing {
				t.Fatal("live poll not marked rebalancing")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no routing epoch after %d points", res.Stats.Points)
		}
	}
	if _, err := sess1.Stop(); err != nil {
		t.Fatal(err)
	}
	ck, err := sess1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	committed := make([]int64, nParts)
	replayed := 0
	for _, po := range ck.Partitions {
		if !po.Checkpointable {
			t.Fatalf("partition not checkpointable: %+v", po)
		}
		committed[po.Partition] = po.Offset
		replayed += int(po.Offset)
	}
	if replayed == 0 {
		t.Fatal("nothing committed before the kill")
	}

	// Fresh reference over exactly the uncommitted suffixes.
	suffix := make([][][]core.Point, nParts)
	suffixTotal := 0
	for i := range suffix {
		tail := flat[i][committed[i]:]
		suffix[i] = chunk(tail, cfg.batchSize)
		suffixTotal += len(tail)
	}
	ref := ingest.NewPush(nParts)
	feedPush(t, ref, suffix)
	want, err := RunPartitionedStream(ref, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	sess2, err := ResumeStream(p, cfg, shards, ck)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sess2)
	got, err := sess2.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Points != suffixTotal {
		t.Fatalf("resumed run saw %d points, want the %d-point suffix", got.Stats.Points, suffixTotal)
	}
	requireIdenticalRanked(t, "rebalancing resumed suffix vs fresh suffix", got.Explanations, want.Explanations)
}

// TestRebalanceEvacuatesDeadShard: with routing active, a quarantined
// shard's buckets are evacuated at the next coordination round, so the
// stream stops hemorrhaging points into the drain — unlike the pinned
// engine, which drops everything the hash keeps routing there. The
// stream is round-paced: left alone, the 60K-point slice could be
// through before the coordinator got to the evacuation, and now and
// then a run dropped 16-18K.
func TestRebalanceEvacuatesDeadShard(t *testing.T) {
	const shards = 3
	d := gen.Devices(gen.DeviceConfig{Points: 60_000, Devices: 500, Seed: 31})
	cfg := skewedConfig(len(d.Points))
	cfg.CoordinateEvery = 2_000
	cfg.newClassifier = func(shard int) core.Classifier {
		if shard == 1 {
			return &bombClassifier{cutClassifier: cutClassifier{cut: 40}, after: 2000}
		}
		return &cutClassifier{cut: 40}
	}
	res := runRoundPaced(t, d.Points, cfg, shards)
	if !res.Stats.Degraded || len(res.Stats.ShardFailures) != 1 {
		t.Fatalf("expected one quarantined shard: %+v", res.Stats.ShardFailures)
	}
	if res.Shards.RoutingEpoch < 1 {
		t.Fatalf("no evacuation epoch published: %+v", res.Shards)
	}
	// Static hashing sends ~1/3 of 60k points to shard 1 and drops all
	// but the ~2000 the bomb admitted (~18k dropped; pinned behavior
	// covered by TestShardedStreamDegradedResult). Evacuation caps the
	// bleed at roughly one coordination window past the panic.
	dropped := res.Stats.ShardFailures[0].DroppedPoints
	t.Logf("dropped %d points", dropped)
	if dropped >= 10_000 {
		t.Errorf("dropped %d points despite evacuation (pinned would drop ~18k)", dropped)
	}
	if len(res.Explanations) == 0 {
		t.Error("surviving shards produced no explanations")
	}
}

// TestRebalanceHammerConcurrentPollsAndStop is the -race exerciser:
// live rebalancing under an aggressive cadence, concurrent pollers
// reading breakdowns mid-epoch-swap, and a Stop cutting the stream off
// mid-flight. Correctness here is "no race, no wedge, coherent final
// result".
func TestRebalanceHammerConcurrentPollsAndStop(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.SkewedDevices(120_000, shards, 53)
	cfg := skewedConfig(len(d.Points))
	cfg.CoordinateEvery = 1_000
	cfg.batchSize = 512
	_, batched := splitParts(d.Points, nParts, cfg.batchSize)

	p := ingest.NewPush(nParts)
	sess, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	feedPush(t, p, batched)

	stopPoll := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				res, err := sess.Poll()
				if err != nil {
					t.Error(err)
					return
				}
				if res.Shards != nil && res.Shards.BucketMoves > 0 && res.Shards.RoutingEpoch == 0 {
					t.Error("bucket moves without a routing epoch")
					return
				}
			}
		}()
	}
	// Let some of the stream through, then stop with a deadline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points >= len(d.Points)/4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream made no progress")
		}
	}
	final, err := stopWithin(t, sess, 10*time.Second)
	close(stopPoll)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.Shards == nil {
		t.Fatal("no final result")
	}
	if !final.Shards.Rebalancing {
		t.Error("final breakdown not marked rebalancing")
	}
}
