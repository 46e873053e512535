package explain

import (
	"slices"

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
	// PollParallelism is the worker count for the poll-path compute:
	// the shard-merge legs, the FPGrowth mine, and the canonical
	// recount passes. 0 resolves to runtime.GOMAXPROCS(0); 1 runs every
	// stage inline on the polling goroutine. Ranked output is identical
	// for every value — each stage has one body, and workers only split
	// index-addressed work whose per-element arithmetic never changes
	// (see doc.go, "Parallel poll pipeline").
	PollParallelism int

	// noCache and noDelta select the reference paths the differential,
	// fuzz and golden suites compare the incremental ones against:
	// noCache recomputes every poll from scratch (fresh FPGrowth mine,
	// fresh filtering, nothing retained), noDelta keeps the caches but
	// re-mines in full wherever a journal delta would have served.
	// Output is identical either way, which is exactly what those suites
	// pin. Unexported on purpose: only this package's tests can set
	// them, so no binary can be configured onto an oracle path.
	noCache, noDelta bool
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
	// shard order and only ever counted on; inShared marks inTree itself
	// as another explainer's. ownInliers resolves both.
	borrowed []*cps.Tree
	inShared bool

	totalOut float64
	totalIn  float64

	// Reusable window-boundary scratch: the frequent-set staging
	// slices handed to Restructure and the dense qualified bitmap used
	// by Explanations. Ids are dense, so these are flat, not maps.
	freqItems  []int32
	freqCounts []float64
	qualified  []bool

	// Incremental mining cache (see Explanations). Both levels are
	// invalidated purely by key comparison — no explicit invalidation
	// hooks — because every state change moves a key component: tree
	// epochs advance on insert/restructure/merge, and the class totals
	// move with every consumed point and decay tick. The cached slices
	// are treated as immutable once stored (refreshes replace, never
	// mutate), so clones may share them.
	mineCache      []fptree.Itemset // last combination table over outTree
	mineCacheMin   float64          // the minCount it was built at
	mineCacheEpoch uint64           // outTree epoch it was built at
	mineCacheOK    bool
	// mineCacheCanon marks the table's counts as canonical for this
	// explainer's own outlier tree lineage (computed by ItemsetSupport
	// on it, directly or via a clone's bit-identical slab copy). Only
	// canonical tables may keep untouched entries' counts across a
	// journal delta; adopted tables from the merge layer are recounted
	// instead (see stageDelta).
	mineCacheCanon bool
	fullCache      []core.Explanation // last ranked output
	fullCacheKey   cacheKey
	fullCacheOK    bool
	stats          CacheStats

	// Staged delta handed in by PollMerger for merged polls: a base
	// table from the previous merged poll plus the union of per-shard
	// changed paths since it. Consumed (and cleared) by the next
	// Explanations call.
	stagedTab   []fptree.Itemset
	stagedMin   float64
	stagedPaths [][]int32
	stagedOK    bool

	// Poll scratch (see parallel.go): one tree counter per worker, each
	// with a private query buffer; the index-addressed count slots of
	// the striped pass in flight; and the delta update's journal-path
	// list, path-sorting buffer and candidate list. Scratch, not state:
	// Clone does not copy it.
	counters []*cps.Counter
	slots    []float64
	pathList [][]int32
	pathBuf  []int32
	candList [][]int32
}

// cacheKey captures every input of Explanations that can change
// between polls: the two tree epochs cover all structural movement
// (insert/restructure/merge), and the class totals cover sketch
// movement — the sketches only change alongside a total or a tree
// epoch (Consume bumps a total, Decay restructures both trees, Merge
// bumps the outlier epoch and adds the borrowed trees' epochs to the
// inlier one), so the quadruple is a sound cache key.
type cacheKey struct {
	outEpoch, inEpoch uint64
	totalOut, totalIn float64
}

func (s *Streaming) cacheKeyNow() cacheKey {
	return cacheKey{
		outEpoch: s.outTree.Epoch(),
		inEpoch:  s.inEpoch(),
		totalOut: s.totalOut,
		totalIn:  s.totalIn,
	}
}

// inEpoch stamps the whole inlier side, borrowed trees included: epochs
// only advance, so within a lineage equal sums mean equal terms.
func (s *Streaming) inEpoch() uint64 {
	e := s.inTree.Epoch()
	for _, t := range s.borrowed {
		e += t.Epoch()
	}
	return e
}

// CacheStats counts how Explanations calls were served; the sharded
// serving layer surfaces these per session so cache behavior is
// observable in production.
type CacheStats struct {
	// FullHits are polls served entirely from the cached ranked output
	// (no state moved since the last poll).
	FullHits int64 `json:"fullHits"`
	// MineReuses are polls that reused the cached mined itemset table
	// (the outlier side was unchanged) and recomputed only the
	// support/risk-ratio filtering against the moved inlier side.
	MineReuses int64 `json:"mineReuses"`
	// FullMines are polls that ran a full FPGrowth mine.
	FullMines int64 `json:"fullMines"`
	// DeltaMines are polls that updated the cached combination table
	// from the outlier tree's changed-path journal (or, on merged
	// polls, the union of per-shard journals) instead of re-mining:
	// untouched itemsets keep their counts, touched and newly possible
	// ones are recounted with targeted support queries.
	DeltaMines int64 `json:"deltaMines"`
	// JournalOverflows are polls that wanted a delta update but fell
	// back to a full mine because the journal could not describe the
	// movement: a restructure or merge rewrote the tree wholesale, the
	// journal's capacity caps were hit, or the subset-enumeration
	// budget was exceeded.
	JournalOverflows int64 `json:"journalOverflows"`
	// SnapshotsElided counts per-shard snapshot clones skipped
	// entirely because the shard's Signature was unchanged since the
	// previous poll (the poll reused the retained snapshot instead of
	// paying the slab memcpy). Maintained by the session layer via
	// PollMerger.NoteElidedSnapshots; always zero at the single-
	// explainer level.
	SnapshotsElided int64 `json:"snapshotsElided"`
}

// Add accumulates o into c.
func (c *CacheStats) Add(o CacheStats) {
	c.FullHits += o.FullHits
	c.MineReuses += o.MineReuses
	c.FullMines += o.FullMines
	c.DeltaMines += o.DeltaMines
	c.JournalOverflows += o.JournalOverflows
	c.SnapshotsElided += o.SnapshotsElided
}

// Sub returns c minus o field-wise: the per-call delta between two
// cumulative snapshots of the same counter set.
func (c CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		FullHits:         c.FullHits - o.FullHits,
		MineReuses:       c.MineReuses - o.MineReuses,
		FullMines:        c.FullMines - o.FullMines,
		DeltaMines:       c.DeltaMines - o.DeltaMines,
		JournalOverflows: c.JournalOverflows - o.JournalOverflows,
		SnapshotsElided:  c.SnapshotsElided - o.SnapshotsElided,
	}
}

// CacheStats reports how this explainer's Explanations calls were
// served since construction (clones start from zero).
func (s *Streaming) CacheStats() CacheStats { return s.stats }

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
	if !cfg.noCache && !cfg.noDelta {
		s.outTree.EnableJournal()
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
// summary by mining the outlier tree and filtering by support and risk
// ratio against the inlier structures.
//
// Mining is incremental across calls. In order of preference:
//
//   - a full-result cache returns the previous ranked output when
//     nothing changed at all (the steady-state poll of a resident
//     session);
//   - a combination-table cache reuses the previous table when only
//     the inlier side moved (outTree epoch and totalOut unchanged),
//     recomputing just the support counting, risk-ratio filtering,
//     and ranking;
//   - a delta mine updates the cached table from the outlier tree's
//     changed-path journal when the outlier side moved by plain
//     inserts: itemsets untouched by any journaled path keep their
//     counts (chains only append, so the counting walk is
//     bit-identical), touched and newly possible itemsets — subsets
//     of journaled paths — are recounted with targeted support
//     queries. Steady drift therefore costs O(changed paths), not
//     O(tree);
//   - a full FPGrowth re-mine runs only when the journal cannot
//     describe the movement: a decay-tick restructure or a merge
//     rewrote the tree, or the journal/budget caps overflowed.
//
// Every path produces identical output (the differential tests pin
// this). The invariant making that cheap to guarantee: combination
// counts are always canonical — computed by ItemsetSupport against the
// current outlier tree — so the full mine is candidate discovery plus
// canonical counting, and a delta only has to get the candidate set
// right, never reproduce FPGrowth's accumulation order.
func (s *Streaming) Explanations() []core.Explanation {
	// Consume any staged merged-poll delta exactly once.
	staged, stagedTab, stagedMin, stagedPaths := s.stagedOK, s.stagedTab, s.stagedMin, s.stagedPaths
	s.stagedOK, s.stagedTab, s.stagedPaths = false, nil, nil
	if s.totalOut <= 0 {
		return nil
	}
	key := s.cacheKeyNow()
	if !s.cfg.noCache && s.fullCacheOK && key == s.fullCacheKey {
		s.stats.FullHits++
		// Hand out a fresh slice (callers may re-sort or decorate);
		// the Explanation structs and their ItemIDs are shared and
		// treated as immutable, like any poll result.
		return slices.Clone(s.fullCache)
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

	// Multi-attribute combinations: obtain the current table — every
	// itemset of ≥2 attributes with canonical support ≥ minCount —
	// then filter against the inlier side.
	tab := s.combinationTable(key.outEpoch, minCount, staged, stagedTab, stagedMin, stagedPaths)
	exps, tested = s.filterCombinations(tab, exps, tested)
	attachCIs(exps, s.cfg.Confidence, s.cfg.Bonferroni, tested)
	Rank(exps)
	if !s.cfg.noCache {
		s.fullCache = exps
		s.fullCacheKey = key
		s.fullCacheOK = true
		return slices.Clone(exps)
	}
	return exps
}

// combinationTable returns the current combination table — exactly the
// itemsets of 2..MaxItems attributes whose canonical (ItemsetSupport)
// count clears minCount — serving it from the cache, a delta update,
// or a full mine, cheapest applicable first. The table's content is a
// pure function of (outlier tree, minCount, MaxItems) on every path;
// only the entry order differs, and ranking restores determinism
// downstream. Refreshes store the table and re-anchor the tree's
// journal.
func (s *Streaming) combinationTable(outEpoch uint64, minCount float64, staged bool, stagedTab []fptree.Itemset, stagedMin float64, stagedPaths [][]int32) []fptree.Itemset {
	if !s.cfg.noCache && s.mineCacheOK &&
		s.mineCacheEpoch == outEpoch && s.mineCacheMin == minCount {
		s.stats.MineReuses++
		return s.mineCache
	}
	deltaOK := !s.cfg.noCache && !s.cfg.noDelta
	if deltaOK && staged && minCount >= stagedMin {
		// Merged poll: PollMerger proved the base table current as of
		// the per-shard signatures and unioned the shard journals.
		// Counts from the previous merged tree are not canonical for
		// this one (it was folded anew), so every surviving entry is
		// recounted; completeness needs only the candidate set.
		if tab, ok := s.deltaTable(stagedTab, stagedPaths, minCount, false); ok {
			s.stats.DeltaMines++
			s.storeTable(tab, minCount, outEpoch)
			return tab
		}
		s.stats.JournalOverflows++
	} else if deltaOK && s.mineCacheOK && s.mineCacheCanon {
		// minCount only rises between restructures (totals are append-
		// only until a decay tick), so a drop below the cached table's
		// threshold means the tree was rewritten too — the base table is
		// incomplete at the new threshold and the delta is off the table.
		if n, ok := s.outTree.JournalSince(s.mineCacheEpoch); ok && minCount >= s.mineCacheMin {
			paths := s.pathList[:0]
			for i := 0; i < n; i++ {
				paths = append(paths, s.outTree.JournalPath(i))
			}
			s.pathList = paths
			if tab, ok2 := s.deltaTable(s.mineCache, paths, minCount, true); ok2 {
				s.stats.DeltaMines++
				s.storeTable(tab, minCount, outEpoch)
				return tab
			}
		}
		// The journal could not describe the movement (restructure or
		// merge rewrite, capacity overflow, subset budget blown, or a
		// lowered threshold): fall back to the full mine.
		s.stats.JournalOverflows++
	}
	tab := s.fullTable(minCount)
	s.stats.FullMines++
	s.storeTable(tab, minCount, outEpoch)
	return tab
}

// storeTable refreshes the combination-table cache and re-anchors the
// outlier journal at the current epoch (the table now reflects it).
func (s *Streaming) storeTable(tab []fptree.Itemset, minCount float64, outEpoch uint64) {
	if s.cfg.noCache {
		return
	}
	s.mineCache = tab
	s.mineCacheMin = minCount
	s.mineCacheEpoch = outEpoch
	s.mineCacheOK = true
	s.mineCacheCanon = true
	s.outTree.ResetJournal()
}

// fullTable builds the combination table from scratch: FPGrowth for
// candidate discovery, canonical recount for the stored counts. The
// mine runs at a slightly relaxed threshold so reassociation ulps
// between FPGrowth's accumulation order and the canonical counting
// walk can never hide a qualifying candidate from discovery.
func (s *Streaming) fullTable(minCount float64) []fptree.Itemset {
	mined := s.outTree.MineParallel(minCount*(1-1e-6), s.cfg.MaxItems, s.cfg.parallelism())
	counts := s.slotsFor(len(mined))
	s.stripe(len(mined), func(w, stride int) {
		c := s.counter(w, s.outTree)
		for idx := w; idx < len(mined); idx += stride {
			if len(mined[idx].Items) >= 2 { // singles are covered by the sketches
				counts[idx] = c.Support(mined[idx].Items)
			}
		}
	})
	tab := make([]fptree.Itemset, 0, len(mined))
	for i, is := range mined {
		if len(is.Items) >= 2 && counts[i] >= minCount {
			tab = append(tab, fptree.Itemset{Items: is.Items, Count: counts[i]})
		}
	}
	return tab
}

// Delta-mining bounds: paths longer than maxDeltaPathItems would need
// more subsets than a full mine is worth, and maxDeltaSubsets bounds
// the total candidate evaluations per delta.
const (
	maxDeltaPathItems = 16
	maxDeltaSubsets   = 1 << 14
)

// deltaTable updates base — a complete combination table for an
// earlier state of the outlier tree at threshold ≤ minCount — into the
// table for the current tree, given that every itemset whose support
// changed since is a subset of one of paths. Subsets of the changed
// paths are the only itemsets that can have joined (the threshold only
// rises between restructures, so a newly qualifying itemset must have
// gained support); base entries merely need re-filtering, and — when
// keepUntouched is set, i.e. base counts are canonical for this very
// tree lineage — entries no journaled path touched keep their counts
// outright, because an append-only chain walk re-accumulates the
// identical sum. ok=false means the subset budget was exceeded and the
// caller must re-mine.
func (s *Streaming) deltaTable(base []fptree.Itemset, paths [][]int32, minCount float64, keepUntouched bool) (tab []fptree.Itemset, ok bool) {
	// Enumerate candidate subsets of the changed paths, deduplicated.
	budget := maxDeltaSubsets
	cand := make(map[string][]int32)
	pathSeen := make(map[string]bool, len(paths))
	for _, p := range paths {
		q := append(s.pathBuf[:0], p...) // every subset below is a copy
		s.pathBuf = q
		slices.Sort(q)
		q = slices.Compact(q)
		if len(q) > maxDeltaPathItems {
			return nil, false
		}
		if len(q) < 2 {
			continue
		}
		pk := itemKey(q)
		if pathSeen[pk] {
			continue
		}
		pathSeen[pk] = true
		if budget -= 1 << len(q); budget < 0 {
			return nil, false
		}
		maxSz := len(q)
		if s.cfg.MaxItems > 0 && s.cfg.MaxItems < maxSz {
			maxSz = s.cfg.MaxItems
		}
		for mask := 3; mask < 1<<len(q); mask++ {
			n := popcount(mask)
			if n < 2 || n > maxSz {
				continue
			}
			sub := make([]int32, 0, n)
			for b := 0; b < len(q); b++ {
				if mask&(1<<b) != 0 {
					sub = append(sub, q[b]) // q ascending ⇒ sub ascending
				}
			}
			k := itemKey(sub)
			if _, dup := cand[k]; !dup {
				cand[k] = sub
			}
		}
	}
	// Mark on the caller (map mutation stays single-threaded): a base
	// entry is recounted when a journaled path touched it or its count
	// is not canonical, and then leaves cand so it is not counted twice.
	counts := s.slotsFor(len(base) + len(cand))
	for i, is := range base {
		k := itemKey(is.Items)
		_, touched := cand[k]
		delete(cand, k)
		if touched || !keepUntouched {
			counts[i] = 0
		} else {
			counts[i] = slotSkip
		}
	}
	candList := s.candList[:0]
	for _, items := range cand {
		candList = append(candList, items)
	}
	s.candList = candList
	// Count striped, then assemble in index order: marked base entries
	// first, the remaining candidates after them.
	n := len(base) + len(candList)
	s.stripe(n, func(w, stride int) {
		c := s.counter(w, s.outTree)
		for idx := w; idx < n; idx += stride {
			if idx >= len(base) {
				counts[idx] = c.Support(candList[idx-len(base)])
			} else if counts[idx] != slotSkip {
				counts[idx] = c.Support(base[idx].Items)
			}
		}
	})
	tab = make([]fptree.Itemset, 0, len(base)+len(candList))
	for i, is := range base {
		ao := counts[i]
		if ao == slotSkip {
			ao = is.Count
		}
		if ao >= minCount {
			tab = append(tab, fptree.Itemset{Items: is.Items, Count: ao})
		}
	}
	for j, items := range candList {
		if ao := counts[len(base)+j]; ao >= minCount {
			tab = append(tab, fptree.Itemset{Items: items, Count: ao})
		}
	}
	return tab, true
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

var _ core.Explainer = (*Streaming)(nil)
var _ core.Decayable = (*Streaming)(nil)
