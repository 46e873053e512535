package sketch

import "container/heap"

// DenseAMC is the Amortized Maintenance Counter specialized for dense
// int32 keys — the encoder-interned attribute ids every MacroBase hot
// path operates on. Counts live in a flat slice indexed directly by id
// (plus a presence bitmap), so Observe is an array update with no
// hashing and no allocation; Maintain sweeps the id range linearly.
// Semantics — admission seeded at w_i, prune-to-stable-size with the
// largest discarded count recorded, decay, and mergeable-summaries
// Merge — match AMC[int32] exactly (ties at the maintenance threshold
// are dropped in id order rather than map order; both are "arbitrary"
// per Algorithm 3).
//
// The trade-off: memory and Maintain/Decay sweeps are O(max id ever
// observed), not O(tracked items) — roughly 9 bytes per distinct id
// plus three full-range sweeps per maintenance round. The engine
// maintains at each decay tick (every DecayEveryPoints points), so up
// to ~10^5 distinct ids that amortizes to a few slot visits per
// observe; on universes of millions of distinct values the sweeps
// dominate and the generic map-backed AMC is the right choice. Keep the generic AMC for
// non-dense or very-high-cardinality key spaces.
type DenseAMC struct {
	counts     []float64 // by id
	present    []bool    // by id
	n          int       // tracked ids
	wi         float64
	stableSize int
	rate       float64

	heapScratch countHeap
}

// NewDenseAMC returns a DenseAMC with the given stable size (1/ε) and
// decay rate in [0, 1); each Decay retains (1 - rate) of every count.
func NewDenseAMC(stableSize int, rate float64) *DenseAMC {
	if stableSize <= 0 {
		panic("sketch: AMC stable size must be positive")
	}
	if rate < 0 || rate >= 1 {
		panic("sketch: decay rate must be in [0, 1)")
	}
	return &DenseAMC{stableSize: stableSize, rate: rate}
}

// grow extends the dense tables to cover id.
func (a *DenseAMC) grow(id int32) {
	for int(id) >= len(a.counts) {
		a.counts = append(a.counts, 0)
		a.present = append(a.present, false)
	}
}

// Observe adds c to item i's count (paper Algorithm 3 OBSERVE). New
// items start at w_i + c, the upper bound on what their count could
// have been when last pruned. Constant time, allocation-free once the
// id range is covered; negative ids are ignored.
func (a *DenseAMC) Observe(i int32, c float64) {
	if i < 0 {
		return
	}
	if int(i) >= len(a.counts) {
		a.grow(i)
	}
	if a.present[i] {
		a.counts[i] += c
	} else {
		a.present[i] = true
		a.counts[i] = a.wi + c
		a.n++
	}
}

// Count returns the approximate count for i and whether i is currently
// tracked.
func (a *DenseAMC) Count(i int32) (float64, bool) {
	if i < 0 || int(i) >= len(a.counts) || !a.present[i] {
		return 0, false
	}
	return a.counts[i], true
}

// Len reports the number of tracked items (may exceed the stable size
// between maintenance rounds).
func (a *DenseAMC) Len() int { return a.n }

// Maintain prunes the sketch to its stable size, keeping the largest
// counts, and records the largest discarded count as the new w_i
// (paper Algorithm 3 MAINTAIN) — one linear sweep to find the
// threshold via a reused min-heap, one to delete.
func (a *DenseAMC) Maintain() {
	if a.n <= a.stableSize {
		return
	}
	h := a.heapScratch[:0]
	for id, ok := range a.present {
		if !ok {
			continue
		}
		v := a.counts[id]
		if len(h) < a.stableSize {
			h = append(h, v)
			heap.Fix(&h, len(h)-1)
		} else if v > h[0] {
			h[0] = v
			heap.Fix(&h, 0)
		}
	}
	a.heapScratch = h
	threshold := h[0]
	tiesToDrop := -a.stableSize
	for id, ok := range a.present {
		if ok && a.counts[id] >= threshold {
			tiesToDrop++
		}
	}
	discardedMax := 0.0
	for id, ok := range a.present {
		if !ok {
			continue
		}
		v := a.counts[id]
		switch {
		case v < threshold:
			if v > discardedMax {
				discardedMax = v
			}
			a.present[id] = false
			a.n--
		case v == threshold && tiesToDrop > 0:
			tiesToDrop--
			discardedMax = threshold
			a.present[id] = false
			a.n--
		}
	}
	a.wi = discardedMax
}

// Decay multiplies every count (and the pruning threshold) by the
// retention factor 1-rate and then runs Maintain, as the streaming
// explainer does at each window boundary (paper Algorithm 3 DECAY).
func (a *DenseAMC) Decay() { a.DecayBy(1 - a.rate) }

// DecayBy damps all counts by an explicit retention factor and runs
// Maintain.
func (a *DenseAMC) DecayBy(retain float64) {
	for id, ok := range a.present {
		if ok {
			a.counts[id] *= retain
		}
	}
	a.wi *= retain
	a.Maintain()
}

// ForEach visits every tracked (item, count) pair in ascending id
// order.
func (a *DenseAMC) ForEach(f func(item int32, count float64)) {
	for id, ok := range a.present {
		if ok {
			f(int32(id), a.counts[id])
		}
	}
}

// Clone returns a deep copy of the sketch — two slab copies under the
// dense layout.
func (a *DenseAMC) Clone() *DenseAMC {
	c := *a
	c.counts = append([]float64(nil), a.counts...)
	c.present = append([]bool(nil), a.present...)
	c.heapScratch = nil
	return &c
}

// Merge folds o's counts into a under the disjoint-substream semantics
// of AMC.Merge: items tracked by both sides sum, an item tracked by
// only one side is credited with the other side's w_i, and the merged
// w_i is at least the sum of the inputs' thresholds.
func (a *DenseAMC) Merge(o *DenseAMC) {
	if len(o.counts) > len(a.counts) {
		a.grow(int32(len(o.counts) - 1))
	}
	for id := range a.counts {
		var ov float64
		oPresent := id < len(o.present) && o.present[id]
		if oPresent {
			ov = o.counts[id]
		}
		switch {
		case a.present[id] && oPresent:
			a.counts[id] += ov
		case a.present[id]:
			a.counts[id] += o.wi
		case oPresent:
			a.present[id] = true
			a.counts[id] = ov + a.wi
			a.n++
		}
	}
	wiSum := a.wi + o.wi
	a.Maintain()
	if a.wi < wiSum {
		a.wi = wiSum
	}
}
