package explain

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"macrobase/internal/core"
)

// TestStreamingMatchesBatchWithoutDecay is the explainer's central
// consistency invariant: with no decay ticks and sketches large enough
// to be exact, the streaming explainer (AMC + M-CPS-trees) must report
// exactly the combinations and counts of the batch explainer
// (Algorithm 2) over the same labeled points.
func TestStreamingMatchesBatchWithoutDecay(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	for trial := 0; trial < 10; trial++ {
		// Random labeled set over a small attribute universe with a
		// couple of planted combinations.
		var labeled []core.LabeledPoint
		nOut := 50 + rng.IntN(100)
		nIn := 1000 + rng.IntN(2000)
		for i := 0; i < nOut; i++ {
			attrs := []int32{1, 2}
			if rng.Float64() < 0.5 {
				attrs = append(attrs, 3+int32(rng.IntN(3)))
			}
			labeled = append(labeled, core.LabeledPoint{
				Point: core.Point{Attrs: attrs}, Label: core.Outlier,
			})
		}
		for i := 0; i < nIn; i++ {
			attrs := []int32{3 + int32(rng.IntN(8)), 20 + int32(rng.IntN(10))}
			if rng.Float64() < 0.05 {
				attrs = append(attrs, 1) // some inlier exposure
			}
			labeled = append(labeled, core.LabeledPoint{
				Point: core.Point{Attrs: attrs}, Label: core.Inlier,
			})
		}
		cfg := BatchConfig{MinSupport: 0.05, MinRiskRatio: 3}
		batch := ExplainBatch(labeled, cfg)

		s := NewStreaming(StreamingConfig{MinSupport: 0.05, MinRiskRatio: 3, amcSize: 100_000})
		// Deliver in odd-sized chunks to exercise batching.
		for i := 0; i < len(labeled); i += 317 {
			end := i + 317
			if end > len(labeled) {
				end = len(labeled)
			}
			s.Consume(labeled[i:end])
		}
		stream := s.Explanations()

		key := func(items []int32) string {
			cp := append([]int32(nil), items...)
			sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
			return fmt.Sprint(cp)
		}
		batchBy := map[string]core.Explanation{}
		for _, e := range batch {
			batchBy[key(e.ItemIDs)] = e
		}
		streamBy := map[string]core.Explanation{}
		for _, e := range stream {
			streamBy[key(e.ItemIDs)] = e
		}
		if len(batchBy) != len(streamBy) {
			t.Fatalf("trial %d: %d batch explanations vs %d streaming\nbatch: %v\nstream: %v",
				trial, len(batchBy), len(streamBy), batch, stream)
		}
		for k, be := range batchBy {
			se, ok := streamBy[k]
			if !ok {
				t.Fatalf("trial %d: streaming missing %s", trial, k)
			}
			if math.Abs(se.OutlierCount-be.OutlierCount) > 1e-9 ||
				math.Abs(se.InlierCount-be.InlierCount) > 1e-9 {
				t.Fatalf("trial %d: counts differ for %s: stream (%v,%v) batch (%v,%v)",
					trial, k, se.OutlierCount, se.InlierCount, be.OutlierCount, be.InlierCount)
			}
			if math.Abs(se.Support-be.Support) > 1e-9 {
				t.Fatalf("trial %d: support differs for %s", trial, k)
			}
			rrDiff := math.Abs(se.RiskRatio - be.RiskRatio)
			if !(math.IsInf(se.RiskRatio, 1) && math.IsInf(be.RiskRatio, 1)) && rrDiff > 1e-9 {
				t.Fatalf("trial %d: risk ratio differs for %s: %v vs %v",
					trial, k, se.RiskRatio, be.RiskRatio)
			}
		}
	}
}
