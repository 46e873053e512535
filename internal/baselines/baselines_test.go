package baselines

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/fptree"
)

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{5, 50, 500} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		tree := NewKDTree(pts)
		for trial := 0; trial < 20; trial++ {
			q := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
			k := 1 + rng.IntN(5)
			got := tree.KNNDistances(q, k)
			var all []float64
			for _, p := range pts {
				all = append(all, dist2(q, p))
			}
			sort.Float64s(all)
			want := all
			if k < len(all) {
				want = all[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d dists", n, k, len(got))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d k=%d: dist[%d] = %v, want %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := NewKDTree(nil)
	if ds := tree.KNNDistances([]float64{1}, 3); ds != nil {
		t.Errorf("empty tree returned %v", ds)
	}
}

func TestKNNScorerSeparates(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	train := make([][]float64, 500)
	for i := range train {
		train[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	s := NewKNNScorer(train, 5)
	if in, out := s.Score([]float64{0, 0}), s.Score([]float64{30, 30}); out < 10*in {
		t.Errorf("kNN discrimination weak: in %v out %v", in, out)
	}
}

func TestAprioriMatchesFPGrowth(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 30; trial++ {
		nTx := 5 + rng.IntN(30)
		txs := make([][]int32, nTx)
		for i := range txs {
			seen := map[int32]bool{}
			for j := 0; j < 1+rng.IntN(5); j++ {
				seen[int32(rng.IntN(8))] = true
			}
			for it := range seen {
				txs[i] = append(txs[i], it)
			}
		}
		minCount := float64(1 + rng.IntN(4))
		want := map[string]float64{}
		for _, is := range fptree.Build(txs, nil, minCount).Mine(minCount) {
			want[keyOf(is.Items)] = is.Count
		}
		got := map[string]float64{}
		for _, is := range Apriori(txs, minCount, nil) {
			got[keyOf(is.Items)] = is.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: apriori %v != fpgrowth %v (txs %v min %v)", trial, got, want, txs, minCount)
		}
	}
}

func TestAprioriCancel(t *testing.T) {
	txs := [][]int32{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	if got := Apriori(txs, 1, func() bool { return true }); got != nil {
		t.Errorf("canceled run returned %v", got)
	}
}

func keyOf(items []int32) string {
	cp := append([]int32(nil), items...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return fmt.Sprint(cp)
}

// plantedSet builds labeled points where outliers carry attrs {1, 2}
// and inliers carry uniform attrs from a disjoint range.
func plantedSet(nOut, nIn int, seed uint64) []core.LabeledPoint {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	var pts []core.LabeledPoint
	for i := 0; i < nOut; i++ {
		pts = append(pts, core.LabeledPoint{
			Point: core.Point{Attrs: []int32{1, 2, 100 + int32(rng.IntN(5))}},
			Label: core.Outlier,
		})
	}
	for i := 0; i < nIn; i++ {
		pts = append(pts, core.LabeledPoint{
			Point: core.Point{Attrs: []int32{10 + int32(rng.IntN(5)), 100 + int32(rng.IntN(5))}},
			Label: core.Inlier,
		})
	}
	return pts
}

func findSet(exps []core.Explanation, items ...int32) *core.Explanation {
	want := keyOf(items)
	for i := range exps {
		if keyOf(exps[i].ItemIDs) == want {
			return &exps[i]
		}
	}
	return nil
}

func TestCubeFindsPlanted(t *testing.T) {
	labeled := plantedSet(50, 2000, 7)
	exps := Cube(labeled, CubeConfig{MinSupport: 0.5, MinRiskRatio: 3})
	if findSet(exps, 1) == nil || findSet(exps, 2) == nil || findSet(exps, 1, 2) == nil {
		t.Fatalf("cube missed planted sets: %v", exps)
	}
	pair := findSet(exps, 1, 2)
	if pair.OutlierCount != 50 || pair.InlierCount != 0 {
		t.Errorf("pair counts = %v/%v", pair.OutlierCount, pair.InlierCount)
	}
	// The shared noise attributes (100+) must be filtered by risk.
	for i := range exps {
		for _, it := range exps[i].ItemIDs {
			if it >= 100 && len(exps[i].ItemIDs) == 1 {
				t.Errorf("noise attr survived cube: %v", exps[i])
			}
		}
	}
	if got := Cube(labeled, CubeConfig{Canceled: func() bool { return true }}); got != nil {
		t.Error("canceled cube returned results")
	}
	if got := Cube(plantedSet(0, 10, 1), CubeConfig{}); got != nil {
		t.Error("no-outlier cube returned results")
	}
}

func TestDecisionTreeFindsPlanted(t *testing.T) {
	labeled := plantedSet(100, 2000, 11)
	exps := DecisionTree(labeled, DTreeConfig{MaxDepth: 10})
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	// The top split must involve a planted attribute.
	top := exps[0]
	hasPlanted := false
	for _, it := range top.ItemIDs {
		if it == 1 || it == 2 {
			hasPlanted = true
		}
	}
	if !hasPlanted {
		t.Errorf("top explanation lacks planted attrs: %v", top)
	}
	if got := DecisionTree(plantedSet(0, 10, 1), DTreeConfig{}); got != nil {
		t.Error("no-outlier tree returned results")
	}
}

func TestXRayCoversPlanted(t *testing.T) {
	labeled := plantedSet(80, 3000, 13)
	exps := XRay(labeled, XRayConfig{})
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	top := exps[0]
	hasPlanted := false
	for _, it := range top.ItemIDs {
		if it == 1 || it == 2 {
			hasPlanted = true
		}
	}
	if !hasPlanted {
		t.Errorf("x-ray top feature lacks planted attrs: %v", top)
	}
	// Greedy cover should need few features for one systemic cause.
	if len(exps) > 5 {
		t.Errorf("cover size %d, expected small", len(exps))
	}
	if got := XRay(labeled, XRayConfig{Canceled: func() bool { return true }}); got != nil {
		t.Error("canceled x-ray returned results")
	}
}
