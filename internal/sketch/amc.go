// Package sketch implements the heavy-hitters structures used by
// MacroBase's explanation stage: the paper's Amortized Maintenance
// Counter (AMC, Algorithm 3) and the two SpaceSaving variants it is
// benchmarked against in Figure 6 (heap- and list-based). An AMC is
// Algorithm 3 only: Observe, Maintain and Decay, each when its caller
// calls it; a maintenance schedule belongs to the caller, as the
// engine's decay tick and Figure 6's experiments each keep their own.
package sketch

import (
	"cmp"
	"container/heap"
	"slices"
)

// AMC is the Amortized Maintenance Counter (paper Algorithm 3): a
// heavy-hitters sketch that trades bounded extra space for
// constant-time updates. Between Maintain calls the sketch may grow
// without bound; Maintain prunes it back to the stable size 1/ε and
// records the largest discarded count w_i, which seeds the count of
// items (re)admitted in the next period. A stable size of 1/ε yields
// an nε error bound on counts of n observations, as in SpaceSaving.
type AMC[K cmp.Ordered] struct {
	counts     map[K]float64
	wi         float64
	stableSize int
	rate       float64
}

// NewAMC returns an AMC with the given stable size (1/ε) and decay
// rate in [0, 1); each Decay retains (1 - rate) of every count.
func NewAMC[K cmp.Ordered](stableSize int, rate float64) *AMC[K] {
	if stableSize <= 0 {
		panic("sketch: AMC stable size must be positive")
	}
	if rate < 0 || rate >= 1 {
		panic("sketch: decay rate must be in [0, 1)")
	}
	return &AMC[K]{counts: make(map[K]float64, 2*stableSize), stableSize: stableSize, rate: rate}
}

// Observe adds c to item i's count (paper Algorithm 3 OBSERVE). New
// items start at w_i + c, the upper bound on what their count could
// have been when last pruned. Runs in constant time.
func (a *AMC[K]) Observe(i K, c float64) {
	if v, ok := a.counts[i]; ok {
		a.counts[i] = v + c
	} else {
		a.counts[i] = a.wi + c
	}
}

// Count returns the approximate count for i and whether i is
// currently tracked. For tracked items the estimate overshoots the
// true (decayed) count by at most the w_i in force when the item was
// (re)admitted.
func (a *AMC[K]) Count(i K) (float64, bool) {
	v, ok := a.counts[i]
	return v, ok
}

// Len reports the number of tracked items (may exceed the stable size
// between maintenance rounds).
func (a *AMC[K]) Len() int { return len(a.counts) }

// Maintain prunes the sketch to its stable size, keeping the largest
// counts, and records the largest discarded count as the new w_i
// (paper Algorithm 3 MAINTAIN). Cost is amortized across the
// observations of the preceding period; a min-heap of the stable size
// gives O(I log(1/ε)) for I tracked items.
func (a *AMC[K]) Maintain() {
	excess := len(a.counts) - a.stableSize
	if excess <= 0 {
		return
	}
	// Keep the stableSize largest counts via a min-heap of survivors.
	h := make(countHeap, 0, a.stableSize)
	for _, v := range a.counts {
		if len(h) < a.stableSize {
			heap.Push(&h, v)
		} else if v > h[0] {
			h[0] = v
			heap.Fix(&h, 0)
		}
	}
	threshold := h[0]
	// Remove entries strictly below the surviving threshold; among
	// ties at the threshold remove just enough to reach stable size,
	// in ascending key order, as DenseAMC removes them in id order.
	discardedMax := 0.0
	above := 0
	var ties []K
	for k, v := range a.counts {
		switch {
		case v > threshold:
			above++
		case v == threshold:
			ties = append(ties, k)
		default:
			discardedMax = max(discardedMax, v)
			delete(a.counts, k)
		}
	}
	if drop := above + len(ties) - a.stableSize; drop > 0 {
		slices.Sort(ties)
		for _, k := range ties[:drop] {
			delete(a.counts, k)
		}
		discardedMax = threshold
	}
	a.wi = discardedMax
}

// Decay multiplies every count (and the pruning threshold) by the
// retention factor 1-rate and then runs Maintain, as the streaming
// explainer does at each window boundary (paper Algorithm 3 DECAY).
func (a *AMC[K]) Decay() { a.DecayBy(1 - a.rate) }

// DecayBy damps all counts by an explicit retention factor and runs
// Maintain.
func (a *AMC[K]) DecayBy(retain float64) {
	for k, v := range a.counts {
		a.counts[k] = v * retain
	}
	a.wi *= retain
	a.Maintain()
}

// ForEach visits every tracked (item, count) pair.
func (a *AMC[K]) ForEach(f func(item K, count float64)) {
	for k, v := range a.counts {
		f(k, v)
	}
}

// countHeap is a min-heap over float64 counts.
type countHeap []float64

func (h countHeap) Len() int            { return len(h) }
func (h countHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h countHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *countHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *countHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
