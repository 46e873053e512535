package sketch

import (
	"math"
	"math/rand/v2"
	"testing"
)

// zipfStream draws n items from a skewed distribution over universe
// [0, u) and returns the stream plus exact counts.
func zipfStreamExact(n, u int, seed uint64) ([]int, map[int]float64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	z := rand.NewZipf(rng, 1.3, 1, uint64(u-1))
	stream := make([]int, n)
	exact := make(map[int]float64, u)
	for i := range stream {
		it := int(z.Uint64())
		stream[i] = it
		exact[it]++
	}
	return stream, exact
}

// observeCapped observes one occurrence of it and maintains a whenever
// it grows past maxSize, a size-based maintenance schedule.
func observeCapped(a *AMC[int], it, maxSize int) {
	a.Observe(it, 1)
	if a.Len() > maxSize {
		a.Maintain()
	}
}

func addExact(dst, src map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(dst)+len(src))
	for k, v := range dst {
		out[k] += v
	}
	for k, v := range src {
		out[k] += v
	}
	return out
}

// TestAMCMergeGuarantees checks the mergeable-summaries laws: merged
// estimates never undershoot the true combined count, overshoot by at
// most the combined error bound, and every item whose true combined
// count exceeds the combined bound survives the merge.
func TestAMCMergeGuarantees(t *testing.T) {
	const stable = 64
	sa, ea := zipfStreamExact(60_000, 4096, 1)
	sb, eb := zipfStreamExact(40_000, 4096, 2)
	a := NewAMC[int](stable, 0.01)
	b := NewAMC[int](stable, 0.01)
	for _, it := range sa {
		observeCapped(a, it, 2*stable)
	}
	for _, it := range sb {
		observeCapped(b, it, 2*stable)
	}
	a.Maintain()
	b.Maintain()
	bound := a.wi + b.wi
	if bound <= 0 {
		t.Fatal("test not exercising pruning: zero error bounds")
	}

	exact := addExact(ea, eb)
	m := a.Clone()
	m.Merge(b)
	if m.Len() > stable {
		t.Errorf("merged sketch size %d exceeds stable size %d", m.Len(), stable)
	}
	if m.wi < bound {
		t.Errorf("merged error bound %v below sum of inputs %v", m.wi, bound)
	}
	m.ForEach(func(it int, est float64) {
		truth := exact[it]
		if est < truth-1e-9 {
			t.Errorf("item %d: estimate %v undershoots true count %v", it, est, truth)
		}
		if est > truth+m.wi+1e-9 {
			t.Errorf("item %d: estimate %v overshoots true %v by more than bound %v", it, est, truth, m.wi)
		}
	})
	// No heavy hitter above the guaranteed bound may be lost. Survivors
	// of the merge prune all have merged estimate >= the pruning
	// threshold >= any discarded estimate >= the true count of what was
	// discarded; an item with true count > merged error bound therefore
	// cannot have been discarded.
	for it, truth := range exact {
		if truth <= m.wi {
			continue
		}
		if _, ok := m.Count(it); !ok {
			t.Errorf("heavy hitter %d (true count %v > bound %v) lost in merge", it, truth, m.wi)
		}
	}
}

// TestAMCMergeOrderInsensitive verifies merge is symmetric when no
// pruning interferes: A∪B and B∪A must agree exactly on every count
// and on the error bound.
func TestAMCMergeOrderInsensitive(t *testing.T) {
	sa, _ := zipfStreamExact(30_000, 512, 3)
	sb, _ := zipfStreamExact(30_000, 512, 4)
	mk := func(stream []int) *AMC[int] {
		s := NewAMC[int](48, 0.01)
		for _, it := range stream {
			observeCapped(s, it, 96)
		}
		s.Maintain()
		return s
	}
	// Build each input once and clone: Maintain breaks count ties in
	// map-iteration order, so two builds of the same stream may track
	// different tied items. Merge symmetry is over the summaries, not
	// the streams.
	a, b := mk(sa), mk(sb)
	a1, b1 := a.Clone(), b.Clone()
	a2, b2 := a.Clone(), b.Clone()

	// Capacity large enough that the merged union needs no pruning:
	// merge into fresh sketches with a big stable size so symmetry is
	// exact rather than tie-dependent.
	big := func(s *AMC[int]) *AMC[int] {
		c := NewAMC[int](10_000, 0.01)
		c.wi = s.wi
		for k, v := range s.counts {
			c.counts[k] = v
		}
		return c
	}
	ab := big(a1)
	ab.Merge(b1)
	ba := big(b2)
	ba.Merge(a2)
	if ab.Len() != ba.Len() {
		t.Fatalf("merge not symmetric: sizes %d vs %d", ab.Len(), ba.Len())
	}
	if math.Abs(ab.wi-ba.wi) > 1e-9 {
		t.Errorf("error bounds differ: %v vs %v", ab.wi, ba.wi)
	}
	ab.ForEach(func(it int, est float64) {
		got, ok := ba.Count(it)
		if !ok {
			t.Errorf("item %d in A∪B but not B∪A", it)
			return
		}
		if math.Abs(got-est) > 1e-9 {
			t.Errorf("item %d: A∪B=%v B∪A=%v", it, est, got)
		}
	})
}

// TestAMCMergeThreeWayAssociativity merges three shard sketches in two
// different orders and checks the surviving heavy hitters agree within
// the combined error bound.
func TestAMCMergeThreeWayAssociativity(t *testing.T) {
	streams := make([][]int, 3)
	exact := map[int]float64{}
	for i := range streams {
		var e map[int]float64
		streams[i], e = zipfStreamExact(25_000, 2048, uint64(10+i))
		exact = addExact(exact, e)
	}
	mk := func(stream []int) *AMC[int] {
		s := NewAMC[int](64, 0.01)
		for _, it := range stream {
			observeCapped(s, it, 128)
		}
		s.Maintain()
		return s
	}
	// ((0 ∪ 1) ∪ 2) vs ((2 ∪ 1) ∪ 0), over the same three summaries.
	s0, s1, s2 := mk(streams[0]), mk(streams[1]), mk(streams[2])
	x := s0.Clone()
	x.Merge(s1.Clone())
	x.Merge(s2.Clone())
	y := s2.Clone()
	y.Merge(s1.Clone())
	y.Merge(s0.Clone())
	for it, truth := range exact {
		if truth <= x.wi || truth <= y.wi {
			continue
		}
		ex, okx := x.Count(it)
		ey, oky := y.Count(it)
		if !okx || !oky {
			t.Errorf("heavy hitter %d lost in one order (x=%v y=%v)", it, okx, oky)
			continue
		}
		if ex < truth-1e-9 || ey < truth-1e-9 {
			t.Errorf("heavy hitter %d undershoots: x=%v y=%v true=%v", it, ex, ey, truth)
		}
	}
}

// TestAMCCloneIndependent ensures clones share no state.
func TestAMCCloneIndependent(t *testing.T) {
	a := NewAMC[int](16, 0.1)
	for i := 0; i < 10; i++ {
		a.Observe(i, float64(i+1))
	}
	c := a.Clone()
	a.Observe(99, 5)
	a.Decay()
	if _, ok := c.Count(99); ok {
		t.Error("clone observed writes to original")
	}
	if v, _ := c.Count(9); v != 10 {
		t.Errorf("clone count mutated: %v", v)
	}
}

// Clone and Merge make the AMC sketch mergeable in the sense of
// Agarwal et al., "Mergeable Summaries" (PODS 2012): two summaries of
// disjoint substreams combine into a summary of the union whose error
// bound is at most the sum of the inputs' bounds. The sharded
// streaming engine merges DenseAMC, its slice-backed twin, under the
// same law; this map-backed form is the oracle its tests compare
// against.

// Clone returns a deep copy of the sketch. Clones share no state with
// the receiver, so a shard worker can hand a clone to the merge stage
// and keep observing.
func (a *AMC[K]) Clone() *AMC[K] {
	c := *a
	c.counts = make(map[K]float64, len(a.counts))
	for k, v := range a.counts {
		c.counts[k] = v
	}
	return &c
}

// Merge folds o's counts into a, treating the two sketches as
// summaries of disjoint substreams. Items tracked by both sides sum
// their counts; an item tracked by only one side is credited with the
// other side's w_i — the upper bound on what its count there could
// have been — so merged estimates never undershoot the true combined
// count. The merged maintenance threshold w_i is at least the sum of
// the inputs' thresholds, preserving the AMC invariant that untracked
// items have true count <= w_i; the merged error bound is therefore at
// most w_a + w_o, the mergeable-summaries guarantee.
func (a *AMC[K]) Merge(o *AMC[K]) {
	merged := make(map[K]float64, len(a.counts)+len(o.counts))
	for k, v := range a.counts {
		if ov, ok := o.counts[k]; ok {
			merged[k] = v + ov
		} else {
			merged[k] = v + o.wi
		}
	}
	for k, v := range o.counts {
		if _, ok := a.counts[k]; !ok {
			merged[k] = v + a.wi
		}
	}
	wiSum := a.wi + o.wi
	a.counts = merged
	a.Maintain()
	if a.wi < wiSum {
		a.wi = wiSum
	}
}
