package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64()*10) - 5 // many ties
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := rng.IntN(n)
		cp := append([]float64(nil), xs...)
		if got := Select(cp, k); got != sorted[k] {
			t.Fatalf("Select(%v, %d) = %v, want %v", xs, k, got, sorted[k])
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range k")
		}
	}()
	Select([]float64{1, 2}, 2)
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
	if got := Median([]float64{7}); got != 7 {
		t.Errorf("singleton median = %v, want 7", got)
	}
}

func TestMedianMatchesSortProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		got := Median(append([]float64(nil), clean...))
		return got == want || math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMAD(t *testing.T) {
	// Median 4; |x-4| = {3,1,0,1,3} => MAD 1.
	med, mad := MAD([]float64{1, 3, 4, 5, 7})
	if med != 4 || mad != 1 {
		t.Errorf("MAD = (%v, %v), want (4, 1)", med, mad)
	}
	// Robustness: one wild value barely moves the MAD.
	med2, mad2 := MAD([]float64{1, 3, 4, 5, 1e9})
	if med2 != 4 || mad2 != 1 {
		t.Errorf("contaminated MAD = (%v, %v), want (4, 1)", med2, mad2)
	}
}

// TestFitMADFallbackSumsInInputOrder: a majority value zeroes the MAD,
// so the scale is the mean absolute deviation, and it is summed over xs
// in xs's own order, whatever order work holds or the selection leaves
// it in. The sample is one where the order shows in the last bits: the
// two unit deviations survive when they precede 1e16, as in xs, and
// vanish when they follow it, as the selection leaves the first work
// slice.
func TestFitMADFallbackSumsInInputOrder(t *testing.T) {
	xs := []float64{1, 1, 1e16, 0, 0, 0, 0, 0, 0, 0}
	meanDev := func(devs ...float64) float64 {
		sum := 0.0
		for _, d := range devs {
			sum += d
		}
		return sum / float64(len(xs)) * 1.2533
	}
	want := meanDev(1, 1, 1e16)
	for _, work := range [][]float64{
		{0, 0, 0, 0, 0, 0, 0, 1e16, 1, 1},
		{1e16, 1, 1, 0, 0, 0, 0, 0, 0, 0},
	} {
		med, scale := FitMAD(xs, work)
		if med != 0 || scale != want {
			t.Errorf("FitMAD = (%v, %v), want (0, %v)", med, scale, want)
		}
	}
	if meanDev(1e16, 1, 1) == want {
		t.Fatal("the sample does not tell the two summation orders apart")
	}
	// Off the fallback the scale is the consistency-scaled MAD.
	if med, scale := FitMAD([]float64{1, 3, 4, 5, 7}, []float64{7, 5, 4, 3, 1}); med != 4 || scale != MADConsistency {
		t.Errorf("FitMAD = (%v, %v), want (4, %v)", med, scale, MADConsistency)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14},
	}
	for _, c := range cases {
		cp := append([]float64(nil), xs...)
		if got := Quantile(cp, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		q := rng.Float64()
		cp := append([]float64(nil), xs...)
		got := Quantile(cp, q)
		want := QuantileSorted(sorted, q)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Quantile(q=%v, n=%d) = %v, want %v", q, n, got, want)
		}
	}
}

func TestQuantileSortedMonotone(t *testing.T) {
	sorted := []float64{-3, -1, 0, 2, 2, 5, 9}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := QuantileSorted(sorted, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestRunningMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if got, want := r.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got, want := r.Variance(), Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, want)
	}
}

func TestRunningMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	var whole, a, b Running
	for i, x := range xs {
		whole.Add(x)
		if i < 70 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 || math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged (%v, %v) != whole (%v, %v)", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
}

// weightedQuantileBrute is the reference: sort value/weight pairs, walk
// the cumulative weight, return the first value reaching q of the
// total.
func weightedQuantileBrute(xs, ws []float64, q float64) float64 {
	type pair struct{ x, w float64 }
	ps := make([]pair, len(xs))
	for i := range xs {
		ps[i] = pair{xs[i], ws[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
	total := 0.0
	for _, p := range ps {
		total += p.w
	}
	target := q * total
	cum := 0.0
	for _, p := range ps {
		cum += p.w
		if cum >= target {
			return p.x
		}
	}
	return ps[len(ps)-1].x
}

// keyIdxPairs is xs as WeightedQuantile's input: (xs[i], i) pairs, so
// weight i goes with value i.
func keyIdxPairs(xs []float64) []KeyIdx {
	ps := make([]KeyIdx, len(xs))
	for i, x := range xs {
		ps[i] = KeyIdx{x, i}
	}
	return ps
}

func TestWeightedQuantileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(200)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			if rng.IntN(4) == 0 {
				xs[i] = float64(rng.IntN(5)) // force duplicates
			}
			ws[i] = rng.Float64() * 3
			if rng.IntN(8) == 0 {
				ws[i] = 0 // zero-weight items must not shift the result
			}
		}
		q := rng.Float64()
		want := weightedQuantileBrute(xs, ws, q)
		got := WeightedQuantile(keyIdxPairs(xs), ws, q)
		if got != want {
			t.Fatalf("trial %d (n=%d q=%v): got %v, want %v", trial, n, q, got, want)
		}
	}
}

func TestWeightedQuantileUniformWeightsIsOrderStatistic(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	ws := make([]float64, len(xs))
	for i := range ws {
		ws[i] = 2.5
	}
	// q = k/n lands exactly on the k-th smallest element.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, k := range []int{1, 25, 50, 99, 101} {
		q := float64(k) / float64(len(xs))
		got := WeightedQuantile(keyIdxPairs(xs), ws, q)
		if want := sorted[k-1]; got != want {
			t.Errorf("q=%v: got %v, want order statistic %v", q, got, want)
		}
	}
}

func TestWeightedQuantileEdges(t *testing.T) {
	if v := WeightedQuantile(nil, nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty input: got %v, want NaN", v)
	}
	if v := WeightedQuantile(keyIdxPairs([]float64{1, 2}), []float64{0, 0}, 0.5); !math.IsNaN(v) {
		t.Errorf("zero total weight: got %v, want NaN", v)
	}
	if v := WeightedQuantile(keyIdxPairs([]float64{7}), []float64{3}, 0.99); v != 7 {
		t.Errorf("singleton: got %v, want 7", v)
	}
	// Out-of-range q clamps.
	if v := WeightedQuantile(keyIdxPairs([]float64{1, 2, 3}), []float64{1, 1, 1}, -1); v != 1 {
		t.Errorf("q<0: got %v, want 1", v)
	}
	if v := WeightedQuantile(keyIdxPairs([]float64{1, 2, 3}), []float64{1, 1, 1}, 2); v != 3 {
		t.Errorf("q>1: got %v, want 3", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	WeightedQuantile(keyIdxPairs([]float64{1}), []float64{1, 2}, 0.5)
}

// Variance returns the unbiased sample variance of xs, Running's
// oracle.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}
