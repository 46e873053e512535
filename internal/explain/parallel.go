package explain

import (
	"runtime"
	"slices"

	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/fptree"
)

// This file holds the striping plumbing of the poll pipeline. Every
// stage — merge legs, mine, recount, combination filter — has one body,
// run through fptree.RunStriped: at one worker the body runs inline on
// the polling goroutine, at more the same body runs once per stripe.
// Ownership rules, in one place:
//
//   - workers never share scratch: each worker owns a cps.Counter
//     (private query buffer), an fptree.Miner (private conditional
//     frames and output stage), or a whole merge leg (a disjoint
//     summary structure);
//   - the structures being read (tree arenas — borrowed inlier trees
//     included — rank tables, the qualified bitmap) are frozen for the
//     duration of a pass — the only concurrent accesses are pure reads;
//   - results land in index-addressed slots and are assembled by the
//     calling goroutine in index order, so worker scheduling can never
//     reorder (or reassociate) anything.
//
// Under those rules PollParallelism only changes wall-clock time.

// parallelism resolves the effective poll worker count: the
// configured PollParallelism, or GOMAXPROCS when unset.
func (c StreamingConfig) parallelism() int {
	if c.PollParallelism > 0 {
		return c.PollParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// slotSkip marks a count slot whose itemset a pass decided not to
// count; supports are never negative.
const slotSkip = -1

// slotsFor returns the explainer's pooled count slots resized to n.
// Contents are stale: a pass reads only the slots it wrote.
func (s *Streaming) slotsFor(n int) []float64 {
	s.slots = slices.Grow(s.slots[:0], n)[:n]
	return s.slots
}

// stripe runs body once per stripe of the index space [0, n) on the
// poll workers (fptree.RunStriped), after making sure every worker it
// may start has a counter to fetch.
func (s *Streaming) stripe(n int, body func(w, stride int)) {
	workers := s.cfg.parallelism()
	for len(s.counters) < fptree.Stride(workers, n) {
		s.counters = append(s.counters, &cps.Counter{})
	}
	fptree.RunStriped(workers, n, body)
}

// counter returns worker w's private counter pointed at tree, so the
// workers of one pass may query tree concurrently (it must stay frozen
// for the duration).
func (s *Streaming) counter(w int, tree *cps.Tree) *cps.Counter {
	c := s.counters[w]
	c.Retarget(tree)
	return c
}

// filterCombinations is the multi-attribute half of Explanations: every
// table entry whose attributes all qualified on their own is counted
// over the inliers (striped — the walks are independent given private
// query scratch) and kept if its risk ratio clears the threshold. A
// merged explainer sums the entry's supports over its own tree, then
// each borrowed one in shard order: a function of the shard states and
// their order alone. Verdicts are assembled in table order on the
// calling goroutine.
func (s *Streaming) filterCombinations(tab []fptree.Itemset, exps []core.Explanation, tested int) ([]core.Explanation, int) {
	ai := s.slotsFor(len(tab))
	s.stripe(len(tab), func(w, stride int) {
	entries:
		for idx := w; idx < len(tab); idx += stride {
			ai[idx] = slotSkip
			items := tab[idx].Items
			if len(items) < 2 {
				continue
			}
			for _, it := range items {
				if int(it) >= len(s.qualified) || !s.qualified[it] {
					continue entries
				}
			}
			n := s.counter(w, s.inTree).Support(items)
			for _, t := range s.borrowed {
				n += s.counter(w, t).Support(items)
			}
			ai[idx] = n
		}
	})
	for idx, is := range tab {
		if ai[idx] == slotSkip {
			continue
		}
		tested++
		rr := RiskRatio(is.Count, ai[idx], s.totalOut, s.totalIn)
		if rr < s.cfg.MinRiskRatio {
			continue
		}
		exps = append(exps, core.Explanation{
			ItemIDs:       is.Items,
			Support:       is.Count / s.totalOut,
			RiskRatio:     rr,
			OutlierCount:  is.Count,
			InlierCount:   ai[idx],
			TotalOutliers: s.totalOut,
			TotalInliers:  s.totalIn,
		})
	}
	return exps, tested
}
