package explain

import (
	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/fptree"
	"macrobase/internal/sketch"
)

// StreamingConfig parameterizes the streaming explainer. Zero fields
// take the paper's §6 defaults (support 0.1%, risk ratio 3, AMC
// stable size 10K, decay 0.01).
type StreamingConfig struct {
	// MinSupport is the minimum (decayed) fraction of outliers a
	// combination must cover (default 0.001).
	MinSupport float64
	// MinRiskRatio is the minimum relative risk (default 3).
	MinRiskRatio float64
	// DecayRate is the exponential damping applied on each Decay
	// tick (default 0.01).
	DecayRate float64
	// AMCSize is the stable size of the single-attribute sketches
	// (default 10_000).
	AMCSize int
	// AMCMaintainEvery, when positive, additionally prunes the
	// sketches every n observations (Figure 6 uses 10K); by default
	// maintenance runs only at decay boundaries.
	AMCMaintainEvery int
	// MaxItems, when positive, bounds combination size.
	MaxItems int
	// Confidence, when positive, attaches risk-ratio confidence
	// intervals.
	Confidence float64
	// Bonferroni corrects the confidence level for the number of
	// combinations tested.
	Bonferroni bool
}

func (c StreamingConfig) withDefaults() StreamingConfig {
	if c.MinSupport == 0 {
		c.MinSupport = 0.001
	}
	if c.MinRiskRatio == 0 {
		c.MinRiskRatio = 3
	}
	if c.DecayRate == 0 {
		c.DecayRate = 0.01
	}
	if c.AMCSize == 0 {
		c.AMCSize = 10_000
	}
	return c
}

// Streaming is MDP's streaming explanation operator (paper §5.3,
// Figure 2): per class, an AMC sketch tracks single-attribute counts
// and an M-CPS-tree tracks attribute combinations. On each decay tick
// the sketches are damped and pruned and the trees are decayed,
// pruned to the currently frequent attributes, and re-sorted.
// Explanations are produced on demand by running FPGrowth over the
// outlier tree and counting candidates against the inlier structures.
//
// The inlier tree deliberately tracks the attributes frequent in the
// *outliers*: those are the only combinations whose inlier support the
// risk ratio needs, which keeps the large inlier side cheap (the
// streaming form of the paper's cardinality-imbalance optimization).
type Streaming struct {
	cfg StreamingConfig

	outAttrs *sketch.DenseAMC
	inAttrs  *sketch.DenseAMC
	outTree  *cps.Tree
	inTree   *cps.Tree

	// borrowed are other explainers' inlier trees, aliased by Merge in
	// shard order and only ever counted on; ownInliers folds them in.
	borrowed []*cps.Tree

	totalOut float64
	totalIn  float64

	// Reusable window-boundary scratch: the frequent-set staging
	// slices handed to Restructure and the dense qualified bitmap used
	// by Explanations. Ids are dense, so these are flat, not maps.
	freqItems  []int32
	freqCounts []float64
	qualified  []bool
}

// NewStreaming returns a streaming explainer.
func NewStreaming(cfg StreamingConfig) *Streaming {
	cfg = cfg.withDefaults()
	s := &Streaming{
		cfg:      cfg,
		outAttrs: sketch.NewDenseAMC(cfg.AMCSize, cfg.DecayRate),
		inAttrs:  sketch.NewDenseAMC(cfg.AMCSize, cfg.DecayRate),
		outTree:  cps.NewMCPS(),
		inTree:   cps.NewMCPS(),
	}
	if cfg.AMCMaintainEvery > 0 {
		s.outAttrs.WithMaintenanceEvery(cfg.AMCMaintainEvery)
		s.inAttrs.WithMaintenanceEvery(cfg.AMCMaintainEvery)
	}
	return s
}

// Consume implements core.Explainer: attributes of each labeled point
// are inserted into the class's sketch and prefix tree.
func (s *Streaming) Consume(batch []core.LabeledPoint) {
	s.ownInliers()
	for i := range batch {
		p := &batch[i]
		if p.Label == core.Outlier {
			s.totalOut++
			for _, a := range p.Attrs {
				s.outAttrs.Observe(a, 1)
			}
			s.outTree.Insert(p.Attrs, 1)
		} else {
			s.totalIn++
			for _, a := range p.Attrs {
				s.inAttrs.Observe(a, 1)
			}
			s.inTree.Insert(p.Attrs, 1)
		}
	}
}

// TotalOutliers returns the decayed outlier mass.
func (s *Streaming) TotalOutliers() float64 { return s.totalOut }

// TotalInliers returns the decayed inlier mass.
func (s *Streaming) TotalInliers() float64 { return s.totalIn }

// Decay implements core.Decayable: the window-boundary maintenance of
// paper §5.3. Counts are damped, attributes below the support
// threshold are dropped from the trees, and the trees are re-sorted in
// the new frequency-descending order.
func (s *Streaming) Decay() {
	s.ownInliers()
	retain := 1 - s.cfg.DecayRate
	s.totalOut *= retain
	s.totalIn *= retain
	s.outAttrs.Decay()
	s.inAttrs.Decay()

	minOut := s.cfg.MinSupport * s.totalOut
	s.freqItems = s.freqItems[:0]
	s.freqCounts = s.freqCounts[:0]
	s.outAttrs.ForEach(func(item int32, count float64) {
		if count >= minOut {
			s.freqItems = append(s.freqItems, item)
			s.freqCounts = append(s.freqCounts, count)
		}
	})
	if s.freqItems == nil {
		// Restructure treats a nil item slice as keep-all; an empty
		// frequent set must prune everything instead.
		s.freqItems = make([]int32, 0, 1)
	}
	s.outTree.Restructure(s.freqItems, s.freqCounts, retain)
	// The inlier tree tracks outlier-frequent attributes, ordered by
	// their inlier counts so its paths stay compressed.
	s.freqCounts = s.freqCounts[:0]
	for _, item := range s.freqItems {
		c, _ := s.inAttrs.Count(item)
		s.freqCounts = append(s.freqCounts, c)
	}
	s.inTree.Restructure(s.freqItems, s.freqCounts, retain)
}

// Explanations implements core.Explainer: it materializes the current
// summary as the paper's streaming MDP answers a request (§5.3), in
// four steps — single attributes from the AMC sketches, the combination
// table mined from the outlier tree (fullTable), the support and risk
// ratio filter against the inlier side (filterCombinations), and the
// ranking. Every call recomputes from the summary state; no earlier
// answer is kept.
func (s *Streaming) Explanations() []core.Explanation {
	if s.totalOut <= 0 {
		return nil
	}
	minCount := s.cfg.MinSupport * s.totalOut

	// Single attributes from the AMC sketches. qualified is a dense
	// per-explainer bitmap reused across polls (ids are dense).
	for i := range s.qualified {
		s.qualified[i] = false
	}
	var exps []core.Explanation
	tested := 0
	s.outAttrs.ForEach(func(item int32, ao float64) {
		if ao < minCount {
			return
		}
		tested++
		ai, _ := s.inAttrs.Count(item)
		rr := RiskRatio(ao, ai, s.totalOut, s.totalIn)
		if rr < s.cfg.MinRiskRatio {
			return
		}
		for int(item) >= len(s.qualified) {
			s.qualified = append(s.qualified, false)
		}
		s.qualified[item] = true
		exps = append(exps, core.Explanation{
			ItemIDs:       []int32{item},
			Support:       ao / s.totalOut,
			RiskRatio:     rr,
			OutlierCount:  ao,
			InlierCount:   ai,
			TotalOutliers: s.totalOut,
			TotalInliers:  s.totalIn,
		})
	})

	// Multi-attribute combinations: the table of every itemset of ≥2
	// attributes with canonical support ≥ minCount, filtered against
	// the inlier side.
	exps, tested = s.filterCombinations(s.fullTable(minCount), exps, tested)
	attachCIs(exps, s.cfg.Confidence, s.cfg.Bonferroni, tested)
	Rank(exps)
	return exps
}

// fullTable builds the combination table — exactly the itemsets of
// 2..MaxItems attributes whose canonical (ItemsetSupport) count clears
// minCount: FPGrowth for candidate discovery, a canonical recount for
// the stored counts. FPGrowth accumulates in the tree's node order,
// which on a merged explainer depends on the order the shards' paths
// were folded in; the recount walks header chains, so a merged answer
// is a function of the shard states alone. The mine runs at a slightly
// relaxed threshold so reassociation ulps between the two orders can
// never hide a qualifying candidate from discovery.
func (s *Streaming) fullTable(minCount float64) []fptree.Itemset {
	mined := s.outTree.Mine(minCount*(1-1e-6), s.cfg.MaxItems)
	tab := make([]fptree.Itemset, 0, len(mined))
	for _, is := range mined {
		if len(is.Items) < 2 {
			continue // singles are covered by the sketches
		}
		if n := s.outTree.ItemsetSupport(is.Items); n >= minCount {
			tab = append(tab, fptree.Itemset{Items: is.Items, Count: n})
		}
	}
	return tab
}

// filterCombinations is the multi-attribute half of Explanations: every
// table entry whose attributes all qualified on their own is counted
// over the inliers and kept if its risk ratio clears the threshold. A
// merged explainer sums the entry's supports over its own tree, then
// each borrowed one in shard order: a function of the shard states and
// their order alone.
func (s *Streaming) filterCombinations(tab []fptree.Itemset, exps []core.Explanation, tested int) ([]core.Explanation, int) {
entries:
	for _, is := range tab {
		for _, it := range is.Items {
			if int(it) >= len(s.qualified) || !s.qualified[it] {
				continue entries
			}
		}
		ai := s.inTree.ItemsetSupport(is.Items)
		for _, t := range s.borrowed {
			ai += t.ItemsetSupport(is.Items)
		}
		tested++
		rr := RiskRatio(is.Count, ai, s.totalOut, s.totalIn)
		if rr < s.cfg.MinRiskRatio {
			continue
		}
		exps = append(exps, core.Explanation{
			ItemIDs:       is.Items,
			Support:       is.Count / s.totalOut,
			RiskRatio:     rr,
			OutlierCount:  is.Count,
			InlierCount:   ai,
			TotalOutliers: s.totalOut,
			TotalInliers:  s.totalIn,
		})
	}
	return exps, tested
}

var _ core.Explainer = (*Streaming)(nil)
var _ core.Decayable = (*Streaming)(nil)
