package pipeline

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// chaosSeed returns the fault-injection seed for this run: CI sweeps a
// fixed matrix through MACROBASE_CHAOS_SEED; local runs get a default.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("MACROBASE_CHAOS_SEED")
	if s == "" {
		return 7
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("MACROBASE_CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// resumableConfig is an order-insensitive pipeline configuration:
// deterministic stateless classifiers and no decay, so any interleaving
// of the partitions' batches yields identical merged explanations —
// the equivalence class kill/resume is verified against.
func resumableConfig() Config {
	return Config{
		Dims:                   1,
		MinSupport:             0.005,
		BatchSize:              2048,
		DecayEveryPoints:       10_000_000,
		Seed:                   5,
		DisableGlobalThreshold: true,
		NewClassifier:          func(int) core.Classifier { return &cutClassifier{cut: 40} },
	}
}

// splitParts slices pts into nParts contiguous per-partition streams,
// each pre-chunked into send batches.
func splitParts(pts []core.Point, nParts, batch int) (flat [][]core.Point, batched [][][]core.Point) {
	per := len(pts) / nParts
	for i := 0; i < nParts; i++ {
		end := (i + 1) * per
		if i == nParts-1 {
			end = len(pts)
		}
		flat = append(flat, pts[i*per:end])
		batched = append(batched, chunk(pts[i*per:end], batch))
	}
	return flat, batched
}

func waitDone(t *testing.T, sess *StreamSession) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !sess.Done() {
		if time.Now().After(deadline) {
			t.Fatal("session did not terminate")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillAndResumeMatchesUninterrupted: checkpoint a session, tear it
// down, resume from the blob, and stream everything through the
// resumed session — the final merged explanation must match an
// uninterrupted run over the same partitions.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.Devices(gen.DeviceConfig{Points: 36_000, Devices: 400, Seed: 17})
	cfg := resumableConfig()
	_, batched := splitParts(d.Points, nParts, cfg.BatchSize)

	// Uninterrupted reference over an identical push layout.
	ref := ingest.NewPush(nParts, 4)
	feedPush(t, ref, batched)
	want, err := RunPartitionedStream(ref, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Session one: checkpoint before any data flows, then die.
	p := ingest.NewPush(nParts, 4)
	p.EnableReplay(0)
	sess1, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sess1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != CheckpointVersion || len(ck.Partitions) != nParts {
		t.Fatalf("checkpoint shape: %+v", ck)
	}
	for _, po := range ck.Partitions {
		if !po.Checkpointable || po.Offset != 0 {
			t.Fatalf("pre-stream checkpoint entry: %+v", po)
		}
	}
	if _, err := sess1.Stop(); err != nil {
		t.Fatal(err)
	}

	// Resume against the same (still-unread) source and stream it all.
	sess2, err := ResumeStream(p, cfg, shards, ck)
	if err != nil {
		t.Fatal(err)
	}
	feedPush(t, p, batched)
	waitDone(t, sess2)
	got, err := sess2.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Points != len(d.Points) {
		t.Fatalf("resumed run saw %d points, want %d", got.Stats.Points, len(d.Points))
	}
	requireIdenticalRanked(t, "resumed vs uninterrupted", got.Explanations, want.Explanations)
}

// TestResumeMidStreamProcessesExactSuffix: kill a session mid-stream,
// checkpoint, resume — the resumed session must process exactly the
// uncommitted suffix (no acked batch replayed, no unacked batch lost),
// matching a fresh run over that suffix.
func TestResumeMidStreamProcessesExactSuffix(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.Devices(gen.DeviceConfig{Points: 36_000, Devices: 400, Seed: 23})
	cfg := resumableConfig()
	flat, batched := splitParts(d.Points, nParts, cfg.BatchSize)

	p := ingest.NewPush(nParts, 4)
	p.EnableReplay(0)
	feedPush(t, p, batched)
	sess1, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Let roughly a third of the stream through, then kill the session.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess1.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points >= len(d.Points)/3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream made no progress")
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
	var replayed int
	for _, po := range ck.Partitions {
		if !po.Checkpointable {
			t.Fatalf("push partition not checkpointable: %+v", po)
		}
		committed[po.Partition] = po.Offset
		replayed += int(po.Offset)
	}
	if replayed == 0 {
		t.Fatal("nothing committed before the kill; the test exercised nothing")
	}

	// Fresh reference over exactly the uncommitted suffixes.
	suffix := make([][][]core.Point, nParts)
	suffixTotal := 0
	for i := range suffix {
		tail := flat[i][committed[i]:]
		suffix[i] = chunk(tail, cfg.BatchSize)
		suffixTotal += len(tail)
	}
	ref := ingest.NewPush(nParts, 4)
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
	requireIdenticalRanked(t, "resumed suffix vs fresh suffix", got.Explanations, want.Explanations)
}

// TestResumeStreamValidation covers the checkpoints resume must refuse.
func TestResumeStreamValidation(t *testing.T) {
	cfg := resumableConfig()
	p := ingest.NewPush(2, 2)
	p.EnableReplay(0)
	if _, err := ResumeStream(p, cfg, 2, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	bad := &Checkpoint{Version: 99, Partitions: make([]PartitionOffset, 2)}
	if _, err := ResumeStream(p, cfg, 2, bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: %v", err)
	}
	short := &Checkpoint{Version: CheckpointVersion, Partitions: make([]PartitionOffset, 1)}
	if _, err := ResumeStream(p, cfg, 2, short); err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Errorf("partition count mismatch: %v", err)
	}
	noReplay := ingest.NewPush(2, 2)
	ck := &Checkpoint{Version: CheckpointVersion, Partitions: []PartitionOffset{
		{Partition: 0, Offset: 10, Checkpointable: true}, {Partition: 1},
	}}
	if _, err := ResumeStream(noReplay, cfg, 2, ck); err == nil {
		t.Error("seek into a replay-less push source accepted")
	}
	p.CloseAll()
	noReplay.CloseAll()
}

// TestChaosTransientFaultsInvisibleSinglePartition: with one partition
// the engine sees a total order, so a 1% transient fault rate absorbed
// by the retry layer must leave the run bit-identical to fault-free —
// default streaming classifiers, decay ticks and all.
func TestChaosTransientFaultsInvisibleSinglePartition(t *testing.T) {
	const shards = 4
	d := gen.Devices(gen.DeviceConfig{Points: 60_000, Devices: 500, Seed: 3})
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 15_000, BatchSize: 2048, Seed: 5, DisableGlobalThreshold: true}
	batches := chunk(d.Points, 512) // more reads -> more injection sites

	clean := ingest.NewPush(1, 2)
	feedPush(t, clean, [][][]core.Point{batches})
	want, err := RunPartitionedStream(clean, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	seed := chaosSeed(t)
	faulty := ingest.NewPush(1, 2)
	feedPush(t, faulty, [][][]core.Point{batches})
	feed := core.NewRetrySource(
		ingest.NewChaosSource(faulty, ingest.ChaosPlan{Seed: seed, TransientErrorRate: 0.01}),
		core.RetryPolicy{Seed: seed, BaseDelay: time.Microsecond},
	)
	got, err := RunPartitionedStream(feed, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.RunStats != want.Stats.RunStats {
		t.Errorf("stats differ under chaos: %+v vs %+v", got.Stats.RunStats, want.Stats.RunStats)
	}
	requireIdenticalRanked(t, fmt.Sprintf("chaos seed %d vs fault-free", seed), got.Explanations, want.Explanations)
}

// TestChaosTransientFaultsInvisibleMultiPartition: P=3 partitions race,
// so the comparison runs under the order-insensitive configuration;
// the answer must be identical with and without injected faults.
func TestChaosTransientFaultsInvisibleMultiPartition(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.Devices(gen.DeviceConfig{Points: 45_000, Devices: 400, Seed: 29})
	cfg := resumableConfig()
	cfg.BatchSize = 512
	_, batched := splitParts(d.Points, nParts, cfg.BatchSize)

	clean := ingest.NewPush(nParts, 4)
	feedPush(t, clean, batched)
	want, err := RunPartitionedStream(clean, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	seed := chaosSeed(t)
	faulty := ingest.NewPush(nParts, 4)
	feedPush(t, faulty, batched)
	feed := core.NewRetrySource(
		ingest.NewChaosSource(faulty, ingest.ChaosPlan{Seed: seed, TransientErrorRate: 0.01}),
		core.RetryPolicy{Seed: seed, BaseDelay: time.Microsecond},
	)
	got, err := RunPartitionedStream(feed, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Points != want.Stats.Points || got.Stats.Outliers != want.Stats.Outliers {
		t.Errorf("stats differ under chaos: %+v vs %+v", got.Stats.RunStats, want.Stats.RunStats)
	}
	requireIdenticalRanked(t, fmt.Sprintf("chaos seed %d p3s4", seed), got.Explanations, want.Explanations)
}

// bombClassifier is cutClassifier with a fuse: it panics after
// consuming a set number of points.
type bombClassifier struct {
	cutClassifier
	after, seen int
}

func (c *bombClassifier) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	c.seen += len(batch)
	if c.seen > c.after {
		panic(fmt.Sprintf("bomb after %d points", c.seen))
	}
	return c.cutClassifier.ClassifyBatch(dst, batch)
}

func degradedConfig() Config {
	cfg := resumableConfig()
	// These tests pin the quarantine drop accounting against the static
	// hash placement; with rebalancing on, the router evacuates the dead
	// shard's buckets and most of its points are rescued instead of
	// dropped (covered by TestRebalanceEvacuatesDeadShard).
	cfg.DisableRebalance = true
	cfg.NewClassifier = func(shard int) core.Classifier {
		if shard == 1 {
			return &bombClassifier{cutClassifier: cutClassifier{cut: 40}, after: 2000}
		}
		return &cutClassifier{cut: 40}
	}
	return cfg
}

// TestShardedStreamDegradedResult: one shard's operator panic must not
// fail the run — the result is marked degraded, carries the failure
// details, and still merges the surviving shards' explanations.
func TestShardedStreamDegradedResult(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 60_000, Devices: 500, Seed: 31})
	res, err := RunShardedStream(core.NewSliceSource(d.Points), degradedConfig(), 3)
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if !res.Degraded || !res.Stats.Degraded {
		t.Fatal("shard panic not reported as degraded")
	}
	if len(res.Stats.ShardFailures) != 1 || res.Stats.ShardFailures[0].Shard != 1 ||
		!strings.Contains(res.Stats.ShardFailures[0].Err, "panic") {
		t.Fatalf("shard failures: %+v", res.Stats.ShardFailures)
	}
	if res.Shards == nil || !res.Shards.Degraded {
		t.Fatal("skew breakdown not marked degraded")
	}
	for i, st := range res.Shards.PerShard {
		if i == 1 {
			if st.Error == "" || st.DroppedPoints == 0 {
				t.Errorf("dead shard status missing failure details: %+v", st)
			}
		} else if st.Error != "" || st.DroppedPoints != 0 {
			t.Errorf("healthy shard %d carries failure details: %+v", i, st)
		}
	}
	if len(res.Explanations) == 0 {
		t.Error("surviving shards produced no explanations")
	}
	// The merged view must not include the dead shard's partial state:
	// every explanation's counts come from shards 0 and 2 only, so the
	// result equals a run where shard 1's points never existed. Verify
	// against a manual filter.
	var kept []core.Point
	for i := range d.Points {
		if core.HashPartition(&d.Points[i], 3) != 1 {
			kept = append(kept, d.Points[i])
		}
	}
	if res.Stats.Points != len(d.Points) {
		t.Errorf("ingested %d points, want %d (drops still count as ingested)", res.Stats.Points, len(d.Points))
	}
	if int64(len(d.Points)-len(kept))-res.Stats.ShardFailures[0].DroppedPoints >= 3000 {
		// The bomb admits ~2000 points before dying; everything else
		// routed to shard 1 must be accounted as dropped.
		t.Errorf("dropped %d of shard 1's %d points — drop accounting leaks",
			res.Stats.ShardFailures[0].DroppedPoints, len(d.Points)-len(kept))
	}
}

// TestStreamSessionDegradedLivePoll: a quarantine mid-stream shows up
// in live polls while the session keeps serving, and survives into the
// final result.
func TestStreamSessionDegradedLivePoll(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 300, Seed: 37})
	p := ingest.NewPush(1, 4)
	sess, err := StartPartitionedStream(p, degradedConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	feedPush(t, p, [][][]core.Point{chunk(d.Points, 1024)})

	// The session must remain pollable and report the degradation live.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("degradation never surfaced in live polls")
		}
	}
	waitDone(t, sess)
	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Degraded || len(final.Stats.ShardFailures) != 1 {
		t.Fatalf("final result lost the degradation: degraded=%v failures=%+v", final.Degraded, final.Stats.ShardFailures)
	}
	if final.Stats.Points != len(d.Points) {
		t.Errorf("final points %d, want %d", final.Stats.Points, len(d.Points))
	}
}

// TestShardPipelineRetrainStagger: coordinated multi-shard runs phase-
// shift each shard's default-classifier retrain schedule; disabling
// stagger (or coordination, whose drift window it protects) keeps the
// shards in lockstep.
func TestShardPipelineRetrainStagger(t *testing.T) {
	schedule := func(cfg Config, shard int) []int {
		pl := newShardPipeline(cfg, shard, 4)
		s, ok := pl.Classifier.(*classify.Streaming)
		if !ok {
			t.Fatalf("default pipeline classifier is %T", pl.Classifier)
		}
		var positions []int
		var dst []core.LabeledPoint
		batch := make([]core.Point, 50)
		prev := 0
		for fed := 0; fed < 6000; {
			for i := range batch {
				batch[i] = core.Point{Metrics: []float64{float64((fed + i) % 83)}}
			}
			fed += len(batch)
			dst = s.ClassifyBatch(dst[:0], batch)
			for prev < s.Retrains {
				positions = append(positions, fed)
				prev++
			}
		}
		return positions
	}
	coordinated := Config{Dims: 1, RetrainEvery: 2000, Seed: 1}.withDefaults()
	s0, s1 := schedule(coordinated, 0), schedule(coordinated, 1)
	if len(s0) == 0 || reflect.DeepEqual(s0, s1) {
		t.Errorf("coordinated shards retrain in lockstep: shard0 %v shard1 %v", s0, s1)
	}
	off := coordinated
	off.noRetrainStagger = true
	if a, b := schedule(off, 0), schedule(off, 1); !reflect.DeepEqual(a, b) {
		t.Errorf("noRetrainStagger left a phase shift: %v vs %v", a, b)
	}
	uncoord := Config{Dims: 1, RetrainEvery: 2000, Seed: 1, DisableGlobalThreshold: true}.withDefaults()
	if a, b := schedule(uncoord, 0), schedule(uncoord, 1); !reflect.DeepEqual(a, b) {
		t.Errorf("uncoordinated shards staggered (breaks per-shard RunStreaming equivalence): %v vs %v", a, b)
	}
}
