package explain

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"macrobase/internal/core"
)

func TestRiskRatioPaperExample(t *testing.T) {
	// Paper §5.1: 500 of 890 outliers are iPhone 6 vs 80191 of 90922
	// inliers => risk ratio 0.1767.
	rr := RiskRatio(500, 80191, 890, 90922)
	if math.Abs(rr-0.1767) > 0.0002 {
		t.Errorf("risk ratio = %v, want ~0.1767", rr)
	}
}

func TestRiskRatioEdgeCases(t *testing.T) {
	if got := RiskRatio(0, 10, 100, 1000); got != 0 {
		t.Errorf("no exposed outliers: %v, want 0", got)
	}
	// All outliers share the attribute and no inliers do: infinite.
	if got := RiskRatio(100, 0, 100, 1000); !math.IsInf(got, 1) {
		t.Errorf("bo=0 should be +Inf, got %v", got)
	}
	// Attribute everywhere: ratio 1.
	if got := RiskRatio(10, 90, 100, 900); math.Abs(got-1) > 1e-12 {
		t.Errorf("uninformative attribute: %v, want 1", got)
	}
	// Sixty-times example shape: attribute raises outlier likelihood.
	rr := RiskRatio(60, 40, 100, 10000)
	if rr < 50 {
		t.Errorf("systemic attribute rr = %v, want large", rr)
	}
}

func TestRiskRatioCIProperties(t *testing.T) {
	ci := RiskRatioCI(100, 1900, 1000, 99000, 0.95)
	rr := RiskRatio(100, 1900, 1000, 99000)
	if !(ci.Lo < rr && rr < ci.Hi) {
		t.Errorf("CI (%v, %v) does not contain %v", ci.Lo, ci.Hi, rr)
	}
	// 10x the data narrows the interval (paper Appendix B: volume
	// improves statistical quality).
	big := RiskRatioCI(1000, 19000, 10000, 990000, 0.95)
	if (big.Hi - big.Lo) >= (ci.Hi - ci.Lo) {
		t.Errorf("larger n should narrow CI: %v vs %v", big.Hi-big.Lo, ci.Hi-ci.Lo)
	}
	// Higher confidence widens it.
	wide := RiskRatioCI(100, 1900, 1000, 99000, 0.99)
	if (wide.Hi - wide.Lo) <= (ci.Hi - ci.Lo) {
		t.Error("99% CI should be wider than 95%")
	}
	// Degenerate counts give the uninformative interval.
	deg := RiskRatioCI(0, 0, 100, 1000, 0.95)
	if deg.Lo != 0 || !math.IsInf(deg.Hi, 1) {
		t.Errorf("degenerate CI = %+v", deg)
	}
}

// TestRiskRatioCIBracketsClampedRatio: an AMC overestimate can count a
// combination past the inlier (or outlier) total. RiskRatio clamps the
// counts outside the combination at 0, and the interval must be built
// from the same clamped counts: finite bounds around the ratio, not NaN.
func TestRiskRatioCIBracketsClampedRatio(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		ao, ai, totalOut, totalIn float64
	}{
		{"inliers past their total", 10, 189, 100, 100},
		{"inliers just past their total", 10, 100.5, 100, 100},
		{"inliers at their total", 10, 100, 100, 100},
		{"exact counts", 100, 1900, 1000, 99000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := RiskRatio(tc.ao, tc.ai, tc.totalOut, tc.totalIn)
			ci := RiskRatioCI(tc.ao, tc.ai, tc.totalOut, tc.totalIn, 0.95)
			if math.IsNaN(ci.Lo) || math.IsNaN(ci.Hi) || math.IsInf(ci.Lo, 0) || math.IsInf(ci.Hi, 0) {
				t.Fatalf("CI = %+v around %v, want finite bounds", ci, rr)
			}
			if !(ci.Lo <= rr && rr <= ci.Hi) {
				t.Errorf("CI (%v, %v) does not bracket %v", ci.Lo, ci.Hi, rr)
			}
		})
	}
}

// plantLabeled builds a labeled set where outliers carry the planted
// attribute combination and inliers draw attributes uniformly.
func plantLabeled(nOut, nIn int, planted []int32, seed uint64) []core.LabeledPoint {
	rng := rand.New(rand.NewPCG(seed, seed+3))
	var pts []core.LabeledPoint
	for i := 0; i < nOut; i++ {
		attrs := append([]int32{}, planted...)
		attrs = append(attrs, 1000+int32(rng.IntN(50))) // noise attr
		pts = append(pts, core.LabeledPoint{Point: core.Point{Attrs: attrs}, Label: core.Outlier})
	}
	for i := 0; i < nIn; i++ {
		attrs := []int32{int32(rng.IntN(20)), 1000 + int32(rng.IntN(50))}
		pts = append(pts, core.LabeledPoint{Point: core.Point{Attrs: attrs}, Label: core.Inlier})
	}
	return pts
}

func hasExplanation(exps []core.Explanation, items ...int32) bool {
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	want := fmt.Sprint(items)
	for i := range exps {
		if fmt.Sprint(exps[i].ItemIDs) == want {
			return true
		}
	}
	return false
}

func TestExplainBatchFindsPlantedCombination(t *testing.T) {
	// Attributes 500 and 501 co-occur in every outlier and never in
	// inliers (inlier attrs < 20 or >= 1000).
	labeled := plantLabeled(100, 10000, []int32{500, 501}, 7)
	exps := ExplainBatch(labeled, BatchConfig{MinSupport: 0.1, MinRiskRatio: 3})
	if !hasExplanation(exps, 500) || !hasExplanation(exps, 501) || !hasExplanation(exps, 500, 501) {
		t.Fatalf("planted combination not found: %v", exps)
	}
	// The planted pair must have full support and infinite risk.
	for i := range exps {
		if fmt.Sprint(exps[i].ItemIDs) == fmt.Sprint([]int32{500, 501}) {
			if math.Abs(exps[i].Support-1) > 1e-9 {
				t.Errorf("support = %v, want 1", exps[i].Support)
			}
			if !math.IsInf(exps[i].RiskRatio, 1) {
				t.Errorf("risk ratio = %v, want +Inf", exps[i].RiskRatio)
			}
		}
	}
	// Noise attributes (>= 1000) appear in in- and outliers alike:
	// they must be filtered by risk ratio.
	for i := range exps {
		for _, it := range exps[i].ItemIDs {
			if it >= 1000 {
				t.Errorf("noise attribute %d survived: %v", it, exps[i])
			}
		}
	}
}

func TestExplainBatchNoOutliers(t *testing.T) {
	labeled := plantLabeled(0, 100, nil, 1)
	if exps := ExplainBatch(labeled, BatchConfig{}); exps != nil {
		t.Errorf("expected nil explanations, got %v", exps)
	}
}

func TestExplainBatchSupportFiltering(t *testing.T) {
	// Outlier attr 900 appears in only 2% of outliers: below a 10%
	// support threshold it must vanish.
	labeled := plantLabeled(100, 1000, []int32{500}, 11)
	for i := 0; i < 2; i++ {
		labeled[i].Attrs = append(labeled[i].Attrs, 900)
	}
	exps := ExplainBatch(labeled, BatchConfig{MinSupport: 0.10, MinRiskRatio: 3})
	if hasExplanation(exps, 900) {
		t.Error("low-support attribute survived")
	}
	if !hasExplanation(exps, 500) {
		t.Error("planted attribute missing")
	}
}

func TestExplainBatchConfidenceIntervals(t *testing.T) {
	labeled := plantLabeled(200, 5000, []int32{500}, 13)
	exps := ExplainBatch(labeled, BatchConfig{MinSupport: 0.5, MinRiskRatio: 3, Confidence: 0.95})
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	for i := range exps {
		if exps[i].CI.Level == 0 {
			t.Errorf("missing CI on %v", exps[i])
		}
	}
}

func TestExplainSeparateAgreesOnPlanted(t *testing.T) {
	labeled := plantLabeled(100, 5000, []int32{500, 501}, 17)
	opt := ExplainBatch(labeled, BatchConfig{MinSupport: 0.2, MinRiskRatio: 3})
	sep := ExplainSeparate(labeled, BatchConfig{MinSupport: 0.2, MinRiskRatio: 3})
	if !hasExplanation(sep, 500, 501) {
		t.Fatalf("separate baseline missed planted pair: %v", sep)
	}
	// Both must agree on the planted pair's outlier support.
	find := func(exps []core.Explanation) *core.Explanation {
		for i := range exps {
			if fmt.Sprint(exps[i].ItemIDs) == fmt.Sprint([]int32{500, 501}) {
				return &exps[i]
			}
		}
		return nil
	}
	a, b := find(opt), find(sep)
	if a == nil || b == nil {
		t.Fatal("planted pair missing from one strategy")
	}
	if math.Abs(a.OutlierCount-b.OutlierCount) > 1e-9 {
		t.Errorf("outlier counts differ: %v vs %v", a.OutlierCount, b.OutlierCount)
	}
}

func TestStreamingExplainerFindsPlanted(t *testing.T) {
	s := NewStreaming(StreamingConfig{MinSupport: 0.1, MinRiskRatio: 3, DecayRate: 0.1})
	labeled := plantLabeled(200, 5000, []int32{500, 501}, 19)
	// Feed in batches with periodic decay, as the Runner would.
	for i := 0; i < len(labeled); i += 512 {
		end := i + 512
		if end > len(labeled) {
			end = len(labeled)
		}
		s.Consume(labeled[i:end])
		if i/512%4 == 3 {
			s.Decay()
		}
	}
	exps := s.Explanations()
	if !hasExplanation(exps, 500) || !hasExplanation(exps, 500, 501) {
		t.Fatalf("streaming explainer missed planted combination: %v", exps)
	}
	if s.TotalOutliers() <= 0 || s.TotalInliers() <= 0 {
		t.Error("totals not tracked")
	}
}

func TestStreamingExplainerDecayForgets(t *testing.T) {
	s := NewStreaming(StreamingConfig{MinSupport: 0.05, MinRiskRatio: 3, DecayRate: 0.5})
	old := plantLabeled(100, 2000, []int32{700}, 23)
	s.Consume(old)
	if exps := s.Explanations(); !hasExplanation(exps, 700) {
		t.Fatal("explanation missing before decay")
	}
	// Heavy decay plus a new regime dominated by attribute 800.
	for i := 0; i < 30; i++ {
		s.Decay()
	}
	fresh := plantLabeled(100, 2000, []int32{800}, 29)
	s.Consume(fresh)
	exps := s.Explanations()
	if !hasExplanation(exps, 800) {
		t.Fatal("new regime not explained")
	}
	for i := range exps {
		for _, it := range exps[i].ItemIDs {
			if it == 700 {
				// Old attribute may linger only with tiny support.
				if exps[i].OutlierCount > 1 {
					t.Errorf("stale explanation retains weight: %v", exps[i])
				}
			}
		}
	}
}

func TestRankOrdering(t *testing.T) {
	exps := []core.Explanation{
		{ItemIDs: []int32{3}, RiskRatio: 5, Support: 0.5},
		{ItemIDs: []int32{1}, RiskRatio: math.Inf(1), Support: 0.1},
		{ItemIDs: []int32{2}, RiskRatio: 5, Support: 0.9},
		{ItemIDs: []int32{4}, RiskRatio: math.NaN(), Support: 0.9},
	}
	Rank(exps)
	if exps[0].ItemIDs[0] != 1 {
		t.Errorf("Inf should rank first: %v", exps)
	}
	if exps[1].ItemIDs[0] != 2 || exps[2].ItemIDs[0] != 3 {
		t.Errorf("support tiebreak wrong: %v", exps)
	}
	if exps[3].ItemIDs[0] != 4 {
		t.Errorf("NaN should rank last: %v", exps)
	}
}

func TestJaccard(t *testing.T) {
	a := []core.Explanation{{ItemIDs: []int32{1}}, {ItemIDs: []int32{2, 3}}}
	b := []core.Explanation{{ItemIDs: []int32{1}}, {ItemIDs: []int32{4}}}
	if got := Jaccard(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("empty jaccard = %v, want 1", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self jaccard = %v, want 1", got)
	}
	if got := Jaccard(a, nil); got != 0 {
		t.Errorf("disjoint jaccard = %v, want 0", got)
	}
}

// TestMinSupportBoundaryIsInclusive: a single attribute, and separately
// a two-attribute combination, whose outlier support is exactly
// MinSupport × totalOut is explained, by the streaming and the batch
// explainer alike. 8 outliers at MinSupport 0.25 put the threshold at
// exactly 2 (dyadic, so the product is exact); every filler attribute
// has support 1 and stays out. The inliers carry none of the outlier
// attributes, so every supported combination clears the risk ratio.
func TestMinSupportBoundaryIsInclusive(t *testing.T) {
	cases := []struct {
		name     string
		outliers [][]int32
		want     []string
	}{
		{
			name:     "single attribute",
			outliers: [][]int32{{1, 10}, {1, 11}, {12}, {13}, {14}, {15}, {16}, {17}},
			want:     []string{"[1]"},
		},
		{
			name:     "two-attribute combination",
			outliers: [][]int32{{1, 2}, {1, 2}, {1, 20}, {1, 21}, {2, 22}, {2, 23}, {24}, {25}},
			want:     []string{"[1 2]", "[1]", "[2]"},
		},
	}
	explained := func(exps []core.Explanation) []string {
		var out []string
		for _, e := range exps {
			ids := append([]int32(nil), e.ItemIDs...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			out = append(out, fmt.Sprint(ids))
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range cases {
		var labeled []core.LabeledPoint
		for _, attrs := range tc.outliers {
			labeled = append(labeled, core.LabeledPoint{Point: core.Point{Attrs: attrs}, Label: core.Outlier})
		}
		for i := 0; i < 100; i++ {
			labeled = append(labeled, core.LabeledPoint{Point: core.Point{Attrs: []int32{9}}, Label: core.Inlier})
		}
		s := NewStreaming(StreamingConfig{MinSupport: 0.25})
		s.Consume(labeled)
		if got := explained(s.Explanations()); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: streaming explained %v, want %v", tc.name, got, tc.want)
		}
		if got := explained(ExplainBatch(labeled, BatchConfig{MinSupport: 0.25})); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: batch explained %v, want %v", tc.name, got, tc.want)
		}
	}
}
