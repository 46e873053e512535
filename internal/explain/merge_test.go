package explain

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"macrobase/internal/core"
)

// labeledStream builds a labeled stream where attribute `hot` is
// planted on a fraction of the outliers, on a universe of `universe`
// attributes.
func labeledStream(n, universe int, hot int32, seed uint64) []core.LabeledPoint {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeedface))
	pts := make([]core.LabeledPoint, n)
	for i := range pts {
		attr := int32(rng.IntN(universe))
		label := core.Inlier
		if rng.Float64() < 0.02 {
			label = core.Outlier
			if rng.Float64() < 0.8 {
				attr = hot
			}
		}
		pts[i] = core.LabeledPoint{
			Point: core.Point{Metrics: []float64{0}, Attrs: []int32{attr}},
			Label: label,
		}
	}
	return pts
}

func explKey(ids []int32) string {
	cp := append([]int32(nil), ids...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	b := make([]byte, 0, len(cp)*4)
	for _, id := range cp {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// TestStreamingMergeEqualsUnionConsume: merging explainers fed
// disjoint substreams must reproduce the counts of one explainer fed
// the concatenation, when no decay or pruning has intervened.
func TestStreamingMergeEqualsUnionConsume(t *testing.T) {
	cfg := StreamingConfig{MinSupport: 0.01, AMCSize: 1000}
	a := NewStreaming(cfg)
	b := NewStreaming(cfg)
	u := NewStreaming(cfg)

	sa := labeledStream(20_000, 50, 7, 1)
	sb := labeledStream(20_000, 50, 7, 2)
	a.Consume(sa)
	b.Consume(sb)
	u.Consume(sa)
	u.Consume(sb)

	m := a.Clone()
	m.Merge(b)
	if math.Abs(m.TotalOutliers()-u.TotalOutliers()) > 1e-9 {
		t.Errorf("merged outlier total %v, union %v", m.TotalOutliers(), u.TotalOutliers())
	}
	if math.Abs(m.TotalInliers()-u.TotalInliers()) > 1e-9 {
		t.Errorf("merged inlier total %v, union %v", m.TotalInliers(), u.TotalInliers())
	}

	want := map[string]core.Explanation{}
	for _, e := range u.Explanations() {
		want[explKey(e.ItemIDs)] = e
	}
	got := m.Explanations()
	if len(got) == 0 {
		t.Fatal("merged explainer produced no explanations")
	}
	for _, e := range got {
		w, ok := want[explKey(e.ItemIDs)]
		if !ok {
			t.Errorf("merged-only explanation %v", e.ItemIDs)
			continue
		}
		if math.Abs(e.OutlierCount-w.OutlierCount) > 1e-6 || math.Abs(e.InlierCount-w.InlierCount) > 1e-6 {
			t.Errorf("items %v: merged counts (%v,%v), union counts (%v,%v)",
				e.ItemIDs, e.OutlierCount, e.InlierCount, w.OutlierCount, w.InlierCount)
		}
	}
	if len(got) != len(want) {
		t.Errorf("merged yields %d explanations, union %d", len(got), len(want))
	}
}

// TestStreamingMergeOrderInsensitive: A∪B and B∪A must rank the same
// explanations with the same statistics.
func TestStreamingMergeOrderInsensitive(t *testing.T) {
	cfg := StreamingConfig{MinSupport: 0.01, AMCSize: 1000}
	a := NewStreaming(cfg)
	b := NewStreaming(cfg)
	a.Consume(labeledStream(15_000, 40, 3, 3))
	b.Consume(labeledStream(15_000, 40, 3, 4))
	// Exercise the decay/restructure path so allowed sets are live.
	a.Decay()
	b.Decay()

	ab := a.Clone()
	ab.Merge(b.Clone())
	ba := b.Clone()
	ba.Merge(a.Clone())

	ea, eb := ab.Explanations(), ba.Explanations()
	if len(ea) != len(eb) {
		t.Fatalf("orders yield %d vs %d explanations", len(ea), len(eb))
	}
	bm := map[string]core.Explanation{}
	for _, e := range eb {
		bm[explKey(e.ItemIDs)] = e
	}
	for _, e := range ea {
		w, ok := bm[explKey(e.ItemIDs)]
		if !ok {
			t.Errorf("explanation %v only in one merge order", e.ItemIDs)
			continue
		}
		if math.Abs(e.RiskRatio-w.RiskRatio) > 1e-9 || math.Abs(e.Support-w.Support) > 1e-9 {
			t.Errorf("items %v: (%v,%v) vs (%v,%v)", e.ItemIDs, e.RiskRatio, e.Support, w.RiskRatio, w.Support)
		}
	}
}

// TestMergeStreamingSingleShardIsExact: the one-shard path of
// MergeStreamingInto must return exactly what the underlying explainer
// returns.
func TestMergeStreamingSingleShardIsExact(t *testing.T) {
	s := NewStreaming(StreamingConfig{MinSupport: 0.01})
	s.Consume(labeledStream(10_000, 30, 5, 9))
	direct := s.Explanations()
	merged := MergeStreamingInto([]*Streaming{s})
	if len(direct) != len(merged) {
		t.Fatalf("single-shard merge differs: %d vs %d", len(direct), len(merged))
	}
	for i := range direct {
		if explKey(direct[i].ItemIDs) != explKey(merged[i].ItemIDs) ||
			direct[i].RiskRatio != merged[i].RiskRatio {
			t.Errorf("explanation %d differs", i)
		}
	}
	if MergeStreamingInto(nil) != nil {
		t.Error("empty merge should be nil")
	}
}

// TestStreamingCloneIndependent: consuming into the original after
// cloning must not change the clone's view.
func TestStreamingCloneIndependent(t *testing.T) {
	s := NewStreaming(StreamingConfig{MinSupport: 0.01})
	s.Consume(labeledStream(10_000, 30, 5, 11))
	c := s.Clone()
	before := c.Explanations()
	s.Consume(labeledStream(10_000, 30, 8, 12))
	s.Decay()
	after := c.Explanations()
	if len(before) != len(after) {
		t.Fatalf("clone view changed: %d vs %d explanations", len(before), len(after))
	}
	for i := range before {
		if before[i].RiskRatio != after[i].RiskRatio {
			t.Errorf("explanation %d risk ratio changed", i)
		}
	}
}
