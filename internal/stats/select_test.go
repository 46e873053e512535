package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// checkSelectKeyIdx runs sel on a copy of in for every k and requires
// its first k pairs to be, as a set, the first k of a full sort under
// (Key with NaN as +Inf, then Idx), and the whole to be a permutation of
// the input.
func checkSelectKeyIdx(t *testing.T, name string, in []KeyIdx, sel func(ps []KeyIdx, k int)) {
	t.Helper()
	want := append([]KeyIdx(nil), in...)
	for i := range want {
		if math.IsNaN(want[i].Key) {
			want[i].Key = math.Inf(1)
		}
	}
	sort.Slice(want, func(a, b int) bool { return keyIdxLess(want[a], want[b]) })
	ps := make([]KeyIdx, len(in))
	for k := 0; k <= len(in); k++ {
		copy(ps, in)
		sel(ps, k)
		got := append([]KeyIdx(nil), ps[:k]...)
		sort.Slice(got, func(a, b int) bool { return keyIdxLess(got[a], got[b]) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: k=%d: chose %v, want %v", name, k, got, want[:k])
			}
		}
		if k == 0 || k == len(in) {
			continue // no selection pass: nothing moved, NaN keys aside
		}
		rest := append([]KeyIdx(nil), ps[k:]...)
		sort.Slice(rest, func(a, b int) bool { return keyIdxLess(rest[a], rest[b]) })
		for i := range rest {
			if rest[i] != want[k+i] {
				t.Fatalf("%s: k=%d: the pairs not chosen are not the rest of the input", name, k)
			}
		}
	}
}

// selectInputs are the families the selection is checked on, at size n.
func selectInputs(n int, rng *rand.Rand) map[string][]KeyIdx {
	fill := func(key func(i int) float64) []KeyIdx {
		ps := make([]KeyIdx, n)
		for i := range ps {
			ps[i] = KeyIdx{Key: key(i), Idx: i}
		}
		return ps
	}
	nanBearing := fill(func(i int) float64 {
		switch rng.IntN(6) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return rng.NormFloat64()
	})
	shuffled := fill(func(int) float64 { return math.Floor(rng.Float64() * 4) })
	rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	return map[string][]KeyIdx{
		"random":         fill(func(int) float64 { return rng.NormFloat64() }),
		"few values":     fill(func(int) float64 { return math.Floor(rng.Float64() * 4) }),
		"ties, any idx":  shuffled,
		"all equal":      fill(func(int) float64 { return 7 }),
		"already sorted": fill(func(i int) float64 { return float64(i) }),
		"reverse sorted": fill(func(i int) float64 { return float64(n - i) }),
		"nan-bearing":    nanBearing,
		"all nan":        fill(func(int) float64 { return math.NaN() }),
	}
}

func TestSelectKeyIdxMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 3, 4, 5, 17, 64, 201} {
		for name, in := range selectInputs(n, rng) {
			checkSelectKeyIdx(t, name, in, SelectKeyIdx)
		}
	}
}

// TestSelectKeyIdxSampledRounds runs SelectKeyIdx past the size at which
// a round picks its pivot from a sample window (frSampleFrom), where the
// window, its recursive selection and the clamps at the slice's ends all
// come into play, and requires the chosen set and the pair of rank k-1 at
// ps[k-1], which medianDist-style callers read.
func TestSelectKeyIdxSampledRounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{frSampleFrom + 2, 1000} {
		for name, in := range selectInputs(n, rng) {
			checkSelectKeyIdx(t, name, in, SelectKeyIdx)
		}
	}
	for name, in := range selectInputs(40_000, rng) {
		want := append([]KeyIdx(nil), in...)
		nanToInf(want)
		sort.Slice(want, func(a, b int) bool { return keyIdxLess(want[a], want[b]) })
		for _, k := range []int{1, 2, 599, 20_000, 20_001, 39_999} {
			ps := append([]KeyIdx(nil), in...)
			SelectKeyIdx(ps, k)
			if ps[k-1] != want[k-1] {
				t.Fatalf("%s: k=%d: ps[k-1] = %v, want the pair of rank k-1, %v", name, k, ps[k-1], want[k-1])
			}
			for i, p := range ps {
				if keyIdxLess(p, want[k-1]) != (i < k-1) {
					t.Fatalf("%s: k=%d: position %d holds %v, on the wrong side of %v", name, k, i, p, want[k-1])
				}
			}
		}
	}
}

// TestSelectKeyIdxFallback gives the partition loop no rounds (and then
// one, and two, on windows large enough that a round selects within a
// sample first), so the heapsort fallback finishes every input family.
func TestSelectKeyIdxFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for depth := 0; depth <= 2; depth++ {
		n := 97
		if depth > 0 {
			n = frSampleFrom + 50
		}
		for name, in := range selectInputs(n, rng) {
			for i := range in {
				if math.IsNaN(in[i].Key) {
					in[i].Key = math.Inf(1) // selectKeyIdx sits below the NaN rewrite
				}
			}
			checkSelectKeyIdx(t, name, in, func(ps []KeyIdx, k int) {
				if k > 0 && k < len(ps) {
					selectKeyIdx(ps, k-1, depth)
				}
			})
		}
	}
}

// medianOfThreeKiller builds the input that makes every partition round
// of partitionKeyIdx (WeightedQuantile's) shed only two pairs while the wanted rank stays in the
// large side: each round it plants the window's two smallest keys where
// the pivot rule looks (first and middle), so the pivot is the second
// smallest, and replays the two swaps the partition then makes.
func medianOfThreeKiller(n int) []KeyIdx {
	at := make([]int, n) // at[position] = which input slot sits there now
	for i := range at {
		at[i] = i
	}
	key := make([]float64, n)
	for i := range key {
		key[i] = -1
	}
	next := 0.0
	for lo, hi := 0, n-1; hi-lo >= 3; lo += 2 {
		mid := lo + (hi-lo)/2
		key[at[lo]], key[at[mid]] = next, next+1
		next += 2
		at[mid], at[hi-1] = at[hi-1], at[mid]
		at[lo+1], at[hi-1] = at[hi-1], at[lo+1]
	}
	ps := make([]KeyIdx, n)
	for i := range ps {
		if key[i] < 0 {
			key[i] = next
			next++
		}
		ps[i] = KeyIdx{Key: key[i], Idx: i}
	}
	return ps
}

// TestSelectKeyIdxAdversarial: on the killer input partitionKeyIdx sheds
// two pairs a round for far longer than the depth limit allows, and
// SelectKeyIdx, whose pivots come from sample windows instead, still
// chooses what a sort would.
func TestSelectKeyIdxAdversarial(t *testing.T) {
	const n = 4096
	in := medianOfThreeKiller(n)

	ps := append([]KeyIdx(nil), in...)
	limit := 2 * log2(n)
	lo, hi := 0, n-1
	for round := 0; round <= limit; round++ {
		if p := partitionKeyIdx(ps, lo, hi); p != lo+1 {
			t.Fatalf("round %d: pivot landed at %d of [%d, %d]; the input is not adversarial for this partition", round, p, lo, hi)
		}
		lo += 2
	}

	for _, k := range []int{n - 1, n - 2, n / 2} {
		ps := append([]KeyIdx(nil), in...)
		SelectKeyIdx(ps, k)
		for i, p := range ps {
			// Keys are the ranks 0..n-1, so rank < k is exactly the chosen set.
			if (p.Key < float64(k)) != (i < k) {
				t.Fatalf("k=%d: position %d holds rank %v", k, i, p.Key)
			}
		}
	}
}

func TestSelectKeyIdxPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > len")
		}
	}()
	SelectKeyIdx(make([]KeyIdx, 2), 3)
}

// BenchmarkSelectKeyIdx times a C-step's selection, per point: the
// h = n/2 closest of 40K sweep keys, selected in a fresh copy of the
// slab each iteration.
func BenchmarkSelectKeyIdx(b *testing.B) {
	pts, ch, mu := benchRows(40_000)
	keys := make([]KeyIdx, len(pts))
	ch.MahalanobisSqAll(keys, pts, mu, nil)
	ps := make([]KeyIdx, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ps, keys)
		SelectKeyIdx(ps, len(ps)/2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/point")
}
