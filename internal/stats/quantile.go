package stats

import (
	"math"
	"sort"
)

// Select partially sorts xs in place so that xs[k] holds the k-th
// smallest element (0-based) and returns it. It is an introselect:
// median-of-three quickselect with a heapsort-free fallback to full
// sorting after too many bad pivots. Average O(n).
func Select(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		panic("stats: Select index out of range")
	}
	lo, hi := 0, len(xs)-1
	depth := 2 * log2(len(xs))
	for hi > lo {
		if depth == 0 {
			sort.Float64s(xs[lo : hi+1])
			return xs[k]
		}
		depth--
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// partition uses a median-of-three pivot and returns its final index.
func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi-1] = xs[hi-1], xs[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi-1] = xs[hi-1], xs[i]
	return i
}

// Median returns the median of xs, permuting xs in place. For even
// lengths it averages the two central order statistics. Empty input
// returns NaN.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return Select(xs, n/2)
	}
	hi := Select(xs, n/2)
	// After Select, the left half contains the n/2 smallest values;
	// its maximum is the lower central statistic.
	lo := xs[0]
	for _, x := range xs[1 : n/2] {
		if x > lo {
			lo = x
		}
	}
	return (lo + hi) / 2
}

// MADConsistency rescales the raw MAD to be a consistent estimator of
// the standard deviation under normality (1/Phi^-1(3/4)).
const MADConsistency = 1.4826022185056018

// MAD returns the median and the median absolute deviation of xs
// (raw, not consistency-scaled), permuting xs in place. The MAD is the
// median of |x - median| (paper §4.1).
func MAD(xs []float64) (median, mad float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	median = Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - median)
	}
	mad = Median(dev)
	return median, mad
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, permuting xs in place.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return Select(xs, 0)
	}
	if q >= 1 {
		return Select(xs, n-1)
	}
	pos := q * float64(n-1)
	k := int(pos)
	frac := pos - float64(k)
	if frac == 0 || k+1 >= n {
		return Select(xs, k)
	}
	hi := Select(xs, k+1)
	// Largest value left of k+1 is the k-th statistic.
	lo := xs[0]
	for _, x := range xs[1 : k+1] {
		if x > lo {
			lo = x
		}
	}
	return lo + frac*(hi-lo)
}

// WeightedQuantile returns the weighted q-quantile of the keys of ps,
// where ws[ps[i].Idx] is ps[i]'s non-negative weight: the smallest key x
// such that the cumulative weight of pairs <= x reaches q of the total
// weight. This is the merge rule for cross-shard score summaries — each
// shard contributes its reservoir sample with a per-item weight of
// (reservoir weight / sample size), so shards that have seen more
// (decayed) stream weight pull the pooled quantile proportionally.
// ps is permuted in place; ws is only read. The search is an introselect
// under SelectKeyIdx's order (Key, then Idx), carrying the weight below
// the window; NaN keys rank as +Inf as they do there. Average O(n).
// Empty input or zero total weight returns NaN; lengths must match.
func WeightedQuantile(ps []KeyIdx, ws []float64, q float64) float64 {
	if len(ps) != len(ws) {
		panic("stats: WeightedQuantile length mismatch")
	}
	n := len(ps)
	if n == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, w := range ws {
		total += w
	}
	nanToInf(ps)
	if total <= 0 {
		return math.NaN()
	}
	target := min(max(q, 0), 1) * total
	lo, hi := 0, n-1
	below := 0.0 // weight of the pairs known to precede ps[lo:]
	depth := 2 * log2(n)
	for hi > lo {
		if depth == 0 {
			heapSortKeyIdx(ps[lo : hi+1])
			break
		}
		depth--
		p := partitionKeyIdx(ps, lo, hi)
		wLeft := 0.0 // weight of [lo, p]: the window's pairs up to the pivot
		for _, e := range ps[lo : p+1] {
			wLeft += ws[e.Idx]
		}
		if below+wLeft >= target {
			if p == lo || below+wLeft-ws[ps[p].Idx] < target {
				// The cumulative weight first reaches the target at the
				// pivot itself.
				return ps[p].Key
			}
			hi = p - 1
		} else {
			below += wLeft
			lo = p + 1
		}
	}
	// Sorted (or single-pair) window: walk the cumulative weight.
	cum := below
	for _, e := range ps[lo : hi+1] {
		cum += ws[e.Idx]
		if cum >= target {
			return e.Key
		}
	}
	return ps[hi].Key // float rounding left cum < target at the maximum
}

// KeyIdx pairs a sort key with the index of the item it was computed
// for, so a selection over keys can say which items it chose.
type KeyIdx struct {
	Key float64
	Idx int
}

// keyIdxLess is the total order (Key, then Idx). With distinct Idx no
// two pairs compare equal, which is what makes a selection's result a
// function of the keys alone.
func keyIdxLess(a, b KeyIdx) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.Idx < b.Idx)
}

// SelectKeyIdx rearranges ps so that ps[:k] holds its k smallest pairs
// under the order (Key, then Idx): among equal keys the lower index is
// chosen first. NaN keys rank as +Inf and are overwritten with it. The
// pair of rank k-1 ends at ps[k-1]; the order within ps[:k-1] and within
// ps[k:] is unspecified. It is Floyd and Rivest's SELECT: each round
// picks its pivot by selecting, recursively, within a sample window of
// about n^(2/3) pairs around the wanted rank, so the partition that
// follows brackets that rank closely and the next window is small.
// After too many rounds the remaining window is heapsorted in place, so
// no call reaches package sort. Average O(n), worst case O(n log n).
// Under a total order the k smallest pairs are one set whatever the
// algorithm, so a caller that reads only which pairs were chosen (a
// C-step) sees the same answer as from any other selection.
func SelectKeyIdx(ps []KeyIdx, k int) {
	if k < 0 || k > len(ps) {
		panic("stats: SelectKeyIdx count out of range")
	}
	nanToInf(ps)
	if k == 0 || k == len(ps) {
		return
	}
	selectKeyIdx(ps, k-1, 2*log2(len(ps)))
}

// frSampleFrom is the window size past which selectKeyIdx picks its pivot
// from a sample, Floyd and Rivest's constant.
const frSampleFrom = 600

// nanToInf overwrites NaN keys with +Inf, which makes keyIdxLess a total
// order over ps.
func nanToInf(ps []KeyIdx) {
	for i := range ps {
		if ps[i].Key != ps[i].Key {
			ps[i].Key = math.Inf(1)
		}
	}
}

// selectKeyIdx puts the pair of rank k at ps[k], smaller pairs to its
// left and larger to its right, in at most depth partition rounds (a
// sample's selection has depth rounds of its own) before heapsorting
// what is left of the window.
func selectKeyIdx(ps []KeyIdx, k, depth int) {
	left, right := 0, len(ps)-1
	for right > left {
		if depth == 0 {
			heapSortKeyIdx(ps[left : right+1])
			return
		}
		depth--
		if right-left > frSampleFrom {
			// Select the pivot's rank within a sample window of s pairs
			// placed where the rank falls, pulled a few standard
			// deviations toward the window's middle.
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			lo := max(left, int(float64(k)-i*s/n+sd))
			hi := min(right, int(float64(k)+(n-i)*s/n+sd))
			selectKeyIdx(ps[lo:hi+1], k-lo, depth)
		}
		// Partition [left, right] around t = ps[k]. t is parked at one
		// end and a pair on the other side of it at the other, so each
		// scan stops before it leaves the window.
		t := ps[k]
		i, j := left, right
		ps[left], ps[k] = ps[k], ps[left]
		if keyIdxLess(t, ps[right]) {
			ps[right], ps[left] = ps[left], ps[right]
		}
		for i < j {
			ps[i], ps[j] = ps[j], ps[i]
			i++
			j--
			for keyIdxLess(ps[i], t) {
				i++
			}
			for keyIdxLess(t, ps[j]) {
				j--
			}
		}
		if ps[left] == t {
			ps[left], ps[j] = ps[j], ps[left]
		} else {
			j++
			ps[j], ps[right] = ps[right], ps[j]
		}
		// t is now at j, every smaller pair left of it.
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}

// partitionKeyIdx picks partition's median-of-three pivot under
// keyIdxLess and returns its final index, for WeightedQuantile's search;
// the scan is Hoare's, whose fewer swaps of 16-byte pairs took a 10K-pair
// selection from ~128 to ~100 µs against partition's scan.
func partitionKeyIdx(ps []KeyIdx, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if keyIdxLess(ps[mid], ps[lo]) {
		ps[mid], ps[lo] = ps[lo], ps[mid]
	}
	if keyIdxLess(ps[hi], ps[lo]) {
		ps[hi], ps[lo] = ps[lo], ps[hi]
	}
	if keyIdxLess(ps[hi], ps[mid]) {
		ps[hi], ps[mid] = ps[mid], ps[hi]
	}
	if hi-lo < 3 {
		return mid // the three-way sort above already ordered the window
	}
	// ps[lo] < pivot < ps[hi] bound both scans, so neither needs a
	// range check of its own.
	pivot := ps[mid]
	ps[mid], ps[hi-1] = ps[hi-1], ps[mid]
	i, j := lo, hi-1
	for {
		for i++; keyIdxLess(ps[i], pivot); i++ {
		}
		for j--; keyIdxLess(pivot, ps[j]); j-- {
		}
		if i >= j {
			break
		}
		ps[i], ps[j] = ps[j], ps[i]
	}
	ps[i], ps[hi-1] = ps[hi-1], ps[i]
	return i
}

// heapSortKeyIdx sorts ps ascending under keyIdxLess.
func heapSortKeyIdx(ps []KeyIdx) {
	n := len(ps)
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && keyIdxLess(ps[child], ps[child+1]) {
				child++
			}
			if !keyIdxLess(ps[root], ps[child]) {
				return
			}
			ps[root], ps[child] = ps[child], ps[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for end := n - 1; end > 0; end-- {
		ps[0], ps[end] = ps[end], ps[0]
		siftDown(0, end)
	}
}

// QuantileSorted returns the q-quantile of an ascending-sorted slice
// without modifying it.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	k := int(pos)
	frac := pos - float64(k)
	if frac == 0 || k+1 >= n {
		return sorted[k]
	}
	return sorted[k] + frac*(sorted[k+1]-sorted[k])
}
