package explain

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"macrobase/internal/core"
)

// cacheWorkload builds a deterministic labeled batch: ~25% outliers,
// attributes drawn from a small universe with a planted hot
// combination among the outliers so mining always has work to do.
func cacheWorkload(rng *rand.Rand, n int) []core.LabeledPoint {
	batch := make([]core.LabeledPoint, n)
	for i := range batch {
		p := &batch[i]
		p.Label = core.Inlier
		if rng.IntN(4) == 0 {
			p.Label = core.Outlier
		}
		nAttrs := 1 + rng.IntN(3)
		seen := map[int32]bool{}
		if p.Label == core.Outlier && rng.IntN(2) == 0 {
			seen[1], seen[2] = true, true // planted combination
		}
		for len(seen) < nAttrs {
			seen[int32(rng.IntN(10))] = true
		}
		// Sorted, not map-iteration order: deterministic per seed.
		for a := range seen {
			p.Attrs = append(p.Attrs, a)
		}
		slices.Sort(p.Attrs)
		p.Score = float64(i)
	}
	return batch
}

// inlierOnly filters a batch down to its inliers.
func inlierOnly(batch []core.LabeledPoint) []core.LabeledPoint {
	var out []core.LabeledPoint
	for i := range batch {
		if batch[i].Label == core.Inlier {
			out = append(out, batch[i])
		}
	}
	return out
}

var cacheCfg = StreamingConfig{MinSupport: 0.01, MinRiskRatio: 1.1, DecayRate: 0.1}

func TestCacheFullHitOnRepeatedPoll(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := NewStreaming(cacheCfg)
	s.Consume(cacheWorkload(rng, 2000))
	first := s.Explanations()
	if len(first) == 0 {
		t.Fatal("workload produced no explanations")
	}
	second := s.Explanations()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated poll diverged:\n%v\n%v", first, second)
	}
	st := s.CacheStats()
	if st.FullHits != 1 || st.FullMines != 1 {
		t.Fatalf("stats = %+v, want 1 full mine then 1 full hit", st)
	}
	// The returned slices must be independent: re-sorting one poll's
	// result must not corrupt the cache.
	second[0], second[len(second)-1] = second[len(second)-1], second[0]
	third := s.Explanations()
	if !reflect.DeepEqual(first, third) {
		t.Fatal("caller mutation of a returned slice leaked into the cache")
	}
}

func TestCacheMineReuseOnInlierOnlyMovement(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	batch := cacheWorkload(rng, 2000)
	more := inlierOnly(cacheWorkload(rng, 600))

	s := NewStreaming(cacheCfg)
	s.Consume(batch)
	s.Explanations()
	s.Consume(more)
	got := s.Explanations()

	st := s.CacheStats()
	if st.MineReuses != 1 || st.FullMines != 1 {
		t.Fatalf("stats = %+v, want exactly one mine reuse after inlier-only movement", st)
	}

	// The reused-mine poll must be identical to a cache-disabled
	// explainer fed the same stream.
	plainCfg := cacheCfg
	plainCfg.noCache = true
	p := NewStreaming(plainCfg)
	p.Consume(batch)
	p.Explanations()
	p.Consume(more)
	want := p.Explanations()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mine-reuse poll diverged from full recompute:\n%v\n%v", got, want)
	}
	if pst := p.CacheStats(); pst.FullMines != 2 || pst.FullHits != 0 || pst.MineReuses != 0 {
		t.Fatalf("disabled-cache stats = %+v, want full mines only", pst)
	}
}

func TestCacheInvalidatesOnOutlierMovementAndDecay(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	s := NewStreaming(cacheCfg)
	s.Consume(cacheWorkload(rng, 2000))
	s.Explanations()

	// Outlier movement by plain inserts no longer invalidates to a full
	// mine: the changed-path journal serves a delta update.
	s.Consume(cacheWorkload(rng, 500)) // contains outliers
	s.Explanations()
	if st := s.CacheStats(); st.FullMines != 1 || st.DeltaMines != 1 {
		t.Fatalf("stats after outlier movement = %+v, want a delta mine", st)
	}

	s.Explanations() // unchanged again
	// A decay-tick restructure rewrites the tree wholesale; the journal
	// cannot describe that, so the poll falls back to a full mine and
	// counts the fallback.
	s.Decay()
	s.Explanations()
	st := s.CacheStats()
	if st.FullMines != 2 || st.FullHits != 1 || st.DeltaMines != 1 || st.JournalOverflows != 1 {
		t.Fatalf("stats after decay = %+v, want a restructure-forced full mine", st)
	}
}

// TestDisableDeltaMineForcesFullMines pins the knob: with delta mining
// off, outlier movement takes the pre-delta full re-mine path, and the
// output stays identical to the delta-mined one.
func TestDisableDeltaMineForcesFullMines(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	noDelta := cacheCfg
	noDelta.noDelta = true
	s := NewStreaming(noDelta)
	s.Consume(cacheWorkload(rng, 2000))
	s.Explanations()
	s.Consume(cacheWorkload(rng, 500))
	got := s.Explanations()
	st := s.CacheStats()
	if st.FullMines != 2 || st.DeltaMines != 0 || st.JournalOverflows != 0 {
		t.Fatalf("stats = %+v, want two full mines and no delta activity", st)
	}

	rng2 := rand.New(rand.NewPCG(5, 6))
	d := NewStreaming(cacheCfg)
	d.Consume(cacheWorkload(rng2, 2000))
	d.Explanations()
	d.Consume(cacheWorkload(rng2, 500))
	want := d.Explanations()
	if dst := d.CacheStats(); dst.DeltaMines != 1 {
		t.Fatalf("delta-enabled stats = %+v, want the second poll delta-mined", dst)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta-mined output diverged from full-mined output:\n%v\n%v", want, got)
	}
}

func TestCloneCarriesCache(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	s := NewStreaming(cacheCfg)
	s.Consume(cacheWorkload(rng, 2000))
	want := s.Explanations()

	c := s.Clone()
	got := c.Explanations()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clone poll diverged:\n%v\n%v", got, want)
	}
	if st := c.CacheStats(); st.FullHits != 1 || st.FullMines != 0 {
		t.Fatalf("clone stats = %+v, want a pure full hit (cache traveled, counters reset)", st)
	}
}

func TestPollMergerIncremental(t *testing.T) {
	const p = 3
	rng := rand.New(rand.NewPCG(9, 10))
	mkShards := func(cfg StreamingConfig) []*Streaming {
		out := make([]*Streaming, p)
		for i := range out {
			out[i] = NewStreaming(cfg)
		}
		return out
	}
	plainCfg := cacheCfg
	plainCfg.noCache = true
	shards, plain := mkShards(cacheCfg), mkShards(plainCfg)
	consume := func(batch []core.LabeledPoint) {
		parts := make([][]core.LabeledPoint, p)
		for i := range batch {
			sh := shardOf(batch[i].Attrs, p)
			parts[sh] = append(parts[sh], batch[i])
		}
		for i := 0; i < p; i++ {
			shards[i].Consume(parts[i])
			plain[i].Consume(parts[i])
		}
	}
	clones := func(ss []*Streaming) []*Streaming {
		out := make([]*Streaming, len(ss))
		for i, s := range ss {
			// SnapshotClone, like the session layer: the clone carries
			// the changed-path journal since the previous snapshot, which
			// is what lets the merger delta-update across polls.
			out[i] = s.SnapshotClone()
		}
		return out
	}
	m := NewPollMerger()
	poll := func(wantDesc string) {
		t.Helper()
		got := m.Merge(clones(shards))
		want := MergeStreamingInto(clones(plain))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged poll diverged from full recompute:\n%v\n%v", wantDesc, got, want)
		}
	}

	consume(cacheWorkload(rng, 3000))
	poll("cold")
	poll("unchanged")
	consume(inlierOnly(cacheWorkload(rng, 900)))
	poll("inlier-only")
	consume(cacheWorkload(rng, 400))
	poll("outliers moved")
	for i := 0; i < p; i++ {
		shards[i].Decay()
		plain[i].Decay()
	}
	poll("after decay")
	poll("unchanged again")

	st := m.Stats()
	if st.FullHits != 2 {
		t.Errorf("merger full hits = %d, want 2 (stats %+v)", st.FullHits, st)
	}
	if st.MineReuses != 1 {
		t.Errorf("merger mine reuses = %d, want 1 (stats %+v)", st.MineReuses, st)
	}
	if st.DeltaMines != 1 {
		t.Errorf("merger delta mines = %d, want 1 for the outlier-movement poll (stats %+v)", st.DeltaMines, st)
	}
	if st.JournalOverflows != 1 {
		t.Errorf("merger journal overflows = %d, want 1 for the decay poll (stats %+v)", st.JournalOverflows, st)
	}
	if st.FullMines != 2 {
		t.Errorf("merger full mines = %d, want 2 (cold + decay fallback; stats %+v)", st.FullMines, st)
	}
}

// TestPollAllocationsAtW1 pins what a poll allocates when every stage's
// one body runs inline: the slots, counters and staging buffers a
// striped pass needs are pooled scratch, not per-poll garbage, so
// neither regime may allocate more than the commit before the serial
// twins were folded into the striped bodies did on this very workload —
// 73 allocs for the full mine after a decay tick, 71 for a steady-drift
// delta (b1400f8, go1.24).
func TestPollAllocationsAtW1(t *testing.T) {
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		t.Skipf("parent figures were measured on go1.24, not %s (the runtime's own allocations, maps above all, differ by toolchain)", runtime.Version())
	}
	cfg := cacheCfg
	cfg.PollParallelism = 1
	rng := rand.New(rand.NewPCG(21, 22))
	s := NewStreaming(cfg)
	s.Consume(cacheWorkload(rng, 4000))
	s.Explanations()

	pre := s.CacheStats()
	full := testing.AllocsPerRun(10, func() {
		s.Decay()
		s.Explanations()
	})
	if got := s.CacheStats().Sub(pre); got.FullMines != 11 {
		t.Fatalf("decay polls were not all full mines: %+v", got)
	}
	if full > 73 {
		t.Errorf("warmed W=1 full-mine poll allocates %v, want <= 73", full)
	}

	var drift [][]core.LabeledPoint
	for len(drift) < 32 {
		b := cacheWorkload(rng, 4)
		b[0].Label = core.Outlier // every batch moves the outlier side
		drift = append(drift, b)
	}
	i := 0
	pre = s.CacheStats()
	delta := testing.AllocsPerRun(20, func() {
		s.Consume(drift[i%len(drift)])
		i++
		s.Explanations()
	})
	if got := s.CacheStats().Sub(pre); got.DeltaMines != 21 {
		t.Fatalf("drift polls were not all delta mines: %+v", got)
	}
	if delta > 71 {
		t.Errorf("W=1 steady-drift delta poll allocates %v, want <= 71", delta)
	}
}
