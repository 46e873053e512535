package sketch

// This file makes the AMC sketch mergeable in the sense of
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
