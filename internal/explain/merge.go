package explain

import (
	"slices"

	"macrobase/internal/core"

	"macrobase/internal/fptree"
)

// This file makes the streaming explainer's summary state mergeable so
// that MacroBase's sharded streaming engine can keep shared-nothing
// per-shard explainers and still produce one global ranked explanation
// set: each shard summarizes its hash partition of the labeled stream,
// and a merge stage folds the per-shard sketches and outlier trees
// together (mining needs one tree) and counts inliers on the shards'
// own inlier trees: an itemset's support in a union of disjoint
// transaction multisets is the sum of its supports in the parts, so
// the union inlier tree is never built. Because AMC sketches and
// M-CPS-trees merge with summed error bounds (mergeable summaries), a
// merged explainer over P disjoint partitions answers support queries
// within P times the single-shard bound — the consistency trade-off of
// sharded execution.

// Clone returns a deep copy of the explainer's summary state (sketches,
// trees, class totals). A shard worker hands clones to the merge stage
// between batches and keeps consuming; the clone never observes later
// writes. The incremental-mining cache travels with the clone (the
// cached slices are immutable once stored, so sharing them is safe and
// the tree epochs keep the keys valid across the copy); the hit/miss
// counters do not — a clone starts counting from zero so per-poll
// deltas are attributable. Inlier trees s only borrows (see Merge) are
// folded into the clone's own.
func (s *Streaming) Clone() *Streaming {
	c := s.cloneWith(1, summaryLegs)
	c.ownInliers()
	return c
}

// cloneWith copies the first `legs` summary legs (two sketch copies,
// two tree slab memcpys) striped across up to w workers. At mergeLegs
// the inlier tree is aliased instead: the merger's defensive clone on
// the poll hot path only ever counts on it.
func (s *Streaming) cloneWith(w, legs int) *Streaming {
	c := &Streaming{
		cfg:      s.cfg,
		totalOut: s.totalOut,
		totalIn:  s.totalIn,
		inTree:   s.inTree,
		inShared: legs < summaryLegs,
		borrowed: slices.Clone(s.borrowed),

		mineCache:      s.mineCache,
		mineCacheMin:   s.mineCacheMin,
		mineCacheEpoch: s.mineCacheEpoch,
		mineCacheOK:    s.mineCacheOK,
		mineCacheCanon: s.mineCacheCanon,
		fullCache:      s.fullCache,
		fullCacheKey:   s.fullCacheKey,
		fullCacheOK:    s.fullCacheOK,
	}
	fptree.RunStriped(w, legs, func(wk, stride int) {
		for leg := wk; leg < legs; leg += stride {
			switch leg {
			case 0:
				c.outAttrs = s.outAttrs.Clone()
			case 1:
				c.inAttrs = s.inAttrs.Clone()
			case 2:
				c.outTree = s.outTree.Clone()
			case 3:
				c.inTree = s.inTree.Clone()
			}
		}
	})
	return c
}

// ownInliers leaves s owning one inlier tree with every transaction it
// answers for: an aliased tree is copied and the borrowed ones folded
// in (cps.Tree.Merge, the union fold every merge used to run). Writers
// — Consume, Decay, Clone — call it first; no poll does.
func (s *Streaming) ownInliers() {
	if s.inShared {
		s.inTree, s.inShared = s.inTree.Clone(), false
	}
	for _, t := range s.borrowed {
		s.inTree.Merge(t)
	}
	s.borrowed = nil
}

// SnapshotClone is Clone for the sharded serving layer's per-poll
// snapshots: it additionally re-anchors the live outlier tree's
// changed-path journal at the snapshot's epoch, so the journal handed
// out with the *next* snapshot describes exactly the movement since
// this one — the diff PollMerger needs to update the previous merged
// poll's combination table instead of re-mining. The clone itself
// carries the journal accumulated since the previous snapshot.
func (s *Streaming) SnapshotClone() *Streaming {
	c := s.Clone()
	s.outTree.ResetJournal()
	return c
}

// Merge folds other's summary state into s, treating the two as
// summaries of disjoint substreams: attribute sketches merge under
// mergeable-summaries semantics, the outlier trees union their
// transaction multisets, and class totals add. other's inlier tree is
// aliased, not copied — queries sum its supports with s's own — so it
// must stay unmutated until s is dropped or next written to (Consume,
// Decay and Clone fold it in first). Merging does not decay either
// side; callers merge states that share a decay schedule (the sharded
// engine's per-shard clocks tick on the same tuple period).
func (s *Streaming) Merge(other *Streaming) { mergeInto(s, []*Streaming{other}, 1) }

// summaryLegs is the number of independent summary structures of an
// explainer — outlier sketch, inlier sketch, outlier tree, inlier tree
// — and so the widest a clone can stripe; a merge folds the first three.
const summaryLegs, mergeLegs = 4, 3

// mergeInto folds rest into dst, the reduction under every merged
// poll, with the three folded legs striped across up to w workers. A
// leg performs the sequential per-shard fold of its own structure: it
// touches only its own dst structure and reads only its own structure
// on each source (a tree's path replay uses that tree's scratch, a
// sketch merge reads the source read-only), so the legs commute freely
// across workers and the result does not depend on w. Note this is
// deliberately NOT a pairwise merge tree over shards: float addition
// is non-associative and merged-tree chain order depends on insertion
// order, so reassociating the shard folds would change low-order bits
// and canonical-recount accumulation order. Per-leg parallelism is the
// determinism boundary (the mine and recount passes scale past it; see
// doc.go). The inlier trees are borrowed in shard order, which is the
// order filterCombinations sums them in.
func mergeInto(dst *Streaming, rest []*Streaming, w int) {
	if len(rest) == 0 {
		return // a one-shard poll has nothing to fold and nothing to spawn
	}
	fptree.RunStriped(w, mergeLegs, func(wk, stride int) {
		for leg := wk; leg < mergeLegs; leg += stride {
			for _, sh := range rest {
				switch leg {
				case 0:
					dst.outAttrs.Merge(sh.outAttrs)
				case 1:
					dst.inAttrs.Merge(sh.inAttrs)
				case 2:
					dst.outTree.Merge(sh.outTree)
				}
			}
		}
	})
	for _, sh := range rest {
		dst.borrowed = append(append(dst.borrowed, sh.inTree), sh.borrowed...)
		dst.totalOut += sh.totalOut
		dst.totalIn += sh.totalIn
	}
}

// MergeStreaming reconciles per-shard explainer states into one ranked
// explanation set. With a single shard it queries the state directly
// (no clone), so a one-shard sharded run reproduces sequential EWS
// output exactly. With several shards it merges a clone of the first
// input, leaving every shard state untouched.
func MergeStreaming(shards []*Streaming) []core.Explanation {
	if len(shards) > 1 {
		owned := append([]*Streaming{shards[0].cloneWith(1, mergeLegs)}, shards[1:]...)
		return MergeStreamingInto(owned)
	}
	return MergeStreamingInto(shards)
}

// MergeStreamingInto is MergeStreaming for callers that own shards[0]
// (e.g. a poll over throwaway snapshot clones): the merge folds the
// rest into it in place, skipping the defensive deep copy on the
// serving hot path. shards[1:] keep their summary state (counts,
// trees, totals) unchanged, but reading them is not concurrency-safe:
// the flat-arena trees serve path extraction out of per-tree reusable
// scratch, so no shard in the slice may be shared with another
// goroutine during the call, and shards[0] aliases their inlier trees
// afterwards (see Streaming.Merge).
func MergeStreamingInto(shards []*Streaming) []core.Explanation {
	if len(shards) == 0 {
		return nil
	}
	m := shards[0]
	mergeInto(m, shards[1:], m.cfg.parallelism())
	return m.Explanations()
}

// Signature is a constant-time fingerprint of an explainer's summary
// state: the two tree epochs plus the class totals — the same
// quadruple the internal explanation cache keys on (see cacheKey for
// why it covers the sketches too). Within one clone lineage, equal
// signatures imply identical summary state.
type Signature struct {
	OutEpoch, InEpoch uint64
	TotalOut, TotalIn float64
}

// Signature returns the explainer's current state fingerprint.
func (s *Streaming) Signature() Signature {
	return Signature{
		OutEpoch: s.outTree.Epoch(),
		InEpoch:  s.inEpoch(),
		TotalOut: s.totalOut,
		TotalIn:  s.totalIn,
	}
}

// outSide reports whether two signatures agree on the outlier side —
// the inputs the mined itemset table depends on.
func outSideEqual(a, b Signature) bool {
	return a.OutEpoch == b.OutEpoch && a.TotalOut == b.TotalOut
}

// adoptMineCache installs a mined itemset table produced by an earlier
// poll over a structurally identical outlier tree. The caller
// (PollMerger) proves identity via per-shard signatures before
// adopting; the table is tagged with the tree's *current* epoch so the
// reuse check in Explanations passes exactly when minCount also
// matches. Unexported on purpose: adopting a table that was not mined
// from an identical tree silently corrupts results.
func (s *Streaming) adoptMineCache(tab []fptree.Itemset, minCount float64) {
	s.mineCache = tab
	s.mineCacheMin = minCount
	s.mineCacheEpoch = s.outTree.Epoch()
	s.mineCacheOK = true
	// The table's counts were computed against a different (merged)
	// tree, not this explainer's own slab lineage, so a later journal
	// delta must not keep them verbatim (see mineCacheCanon).
	s.mineCacheCanon = false
}

// stageDelta hands the next Explanations call a merged-poll delta: a
// combination table from the previous merged poll (complete at
// threshold tabMin) plus the union of per-shard changed paths since
// it. The caller (PollMerger) proves via signatures and journals that
// every itemset whose merged support changed is a subset of one of
// paths; Explanations re-derives the current table by recounting,
// skipping the FPGrowth mine. Consumed by exactly one poll.
func (s *Streaming) stageDelta(tab []fptree.Itemset, tabMin float64, paths [][]int32) {
	s.stagedTab = tab
	s.stagedMin = tabMin
	s.stagedPaths = paths
	s.stagedOK = true
}

// outJournalSince exposes the outlier tree's changed-path journal to
// the merge layer: n paths since epoch, ok=false when the journal
// cannot vouch for that interval (rewritten, overflowed, or anchored
// elsewhere).
func (s *Streaming) outJournalSince(epoch uint64) (int, bool) {
	return s.outTree.JournalSince(epoch)
}

// PollMerger serves a resident session's repeated merged polls
// incrementally. A session keeps one PollMerger alive across polls;
// each Merge call receives fresh per-shard snapshot clones and
// reconciles them, reusing work from the previous poll when the
// per-shard signatures prove the state unchanged:
//
//   - if no shard moved at all, the previous ranked output is returned
//     without touching the clones (a full hit);
//   - if only inlier sides moved, the previous poll's mined itemset
//     table is injected into the merged explainer, which then skips
//     its FPGrowth mine and recomputes only the filtering/ranking;
//   - if outlier sides moved by plain inserts — every moved shard's
//     snapshot carries a valid changed-path journal since the previous
//     poll — the previous merged table plus the union of those
//     journals is staged as a delta: the merged explainer re-derives
//     the current table with targeted support recounts instead of an
//     FPGrowth mine (see Streaming.Explanations);
//   - otherwise (a decay-tick restructure, a journal overflow, a shard
//     count change) the merge runs in full.
//
// Every incremental path produces output identical to a full
// recompute (the differential tests pin this). A
// PollMerger is not safe for concurrent use; the session serializes
// polls around it.
type PollMerger struct {
	sigs       []Signature // per-shard signatures at the last poll
	valid      bool
	exps       []core.Explanation // last merged ranked output
	mineTab    []fptree.Itemset   // last merged mined table
	mineMin    float64
	mineOK     bool
	stats      CacheStats
	sigScratch []Signature
}

// NewPollMerger returns an empty merger; its first Merge always runs
// in full.
func NewPollMerger() *PollMerger { return &PollMerger{} }

// Stats reports cumulative cache counters across every poll served by
// this merger.
func (m *PollMerger) Stats() CacheStats { return m.stats }

// NoteElidedSnapshots records n per-shard snapshot clones the caller
// skipped because the shard signatures proved the retained snapshots
// still current (see CacheStats.SnapshotsElided). The session layer
// calls it alongside MergeShared.
func (m *PollMerger) NoteElidedSnapshots(n int) { m.stats.SnapshotsElided += int64(n) }

// Merge reconciles per-shard snapshot clones into one ranked
// explanation set, incrementally when the signatures allow it. The
// merger takes ownership of shards (the fold mutates shards[0] and
// aliases the others' inlier trees — see Streaming.Merge); callers pass
// throwaway clones, like MergeStreamingInto. The result is the caller's.
func (m *PollMerger) Merge(shards []*Streaming) []core.Explanation {
	return m.merge(shards, true)
}

// MergeShared is Merge for callers that keep the shard snapshots
// alive across polls (the snapshot-elision path): the inputs' summary
// state is never mutated — a fold clones shards[0]'s sketches and
// outlier tree first and only counts on the inlier trees — so the same
// snapshot may be passed again on the next poll. Reading still runs
// through per-tree scratch, so the inputs must not be shared with
// another goroutine during the call; with a single shard the
// explainer's internal caches (not its summary state) may be
// refreshed in place.
func (m *PollMerger) MergeShared(shards []*Streaming) []core.Explanation {
	return m.merge(shards, false)
}

func (m *PollMerger) merge(shards []*Streaming, owned bool) []core.Explanation {
	if len(shards) == 0 {
		return nil
	}
	sigs := m.sigScratch[:0]
	for _, sh := range shards {
		sigs = append(sigs, sh.Signature())
	}
	m.sigScratch = sigs
	if m.valid && slices.Equal(sigs, m.sigs) {
		// No shard moved since the last poll: the merged state would be
		// identical, so the previous ranked output stands.
		m.stats.FullHits++
		return slices.Clone(m.exps)
	}
	outSame := m.valid && len(sigs) == len(m.sigs)
	if outSame {
		for i := range sigs {
			if !outSideEqual(sigs[i], m.sigs[i]) {
				outSame = false
				break
			}
		}
	}
	// Collect the per-shard changed-path journals before folding: the
	// fold rewrites dst's tree (poisoning its own journal), but the
	// journal storage read here is never mutated mid-poll, so the path
	// slices stay valid until Explanations consumes them.
	deltaOK := !outSame && m.valid && m.mineOK && len(sigs) == len(m.sigs) &&
		!shards[0].cfg.noDelta
	var stagedPaths [][]int32
	if deltaOK {
		for i, sh := range shards {
			if outSideEqual(sigs[i], m.sigs[i]) {
				continue // unchanged shard: contributes no paths
			}
			n, ok := sh.outJournalSince(m.sigs[i].OutEpoch)
			if !ok {
				// A moved shard's journal cannot vouch for the interval
				// (restructure, overflow, or a replaced shard): the poll
				// falls back to a full merged mine.
				m.stats.JournalOverflows++
				deltaOK = false
				stagedPaths = nil
				break
			}
			for j := 0; j < n; j++ {
				stagedPaths = append(stagedPaths, sh.outTree.JournalPath(j))
			}
		}
	}
	dst := shards[0]
	if !owned && len(shards) > 1 {
		// Shared inputs survive the poll: fold into a local clone so
		// the retained snapshots' summary state stays pristine. (With
		// one shard there is no fold; Explanations only refreshes
		// dst's internal caches, which retained snapshots tolerate.)
		dst = shards[0].cloneWith(shards[0].cfg.parallelism(), mergeLegs)
	}
	mergeInto(dst, shards[1:], dst.cfg.parallelism())
	if outSame && m.mineOK {
		// Every outlier side is unchanged, so the merged outlier tree —
		// a deterministic fold of the per-shard trees — is identical to
		// the previous poll's, and so is its mining threshold (the
		// merged totalOut is the same sum). The previous mined table is
		// therefore exact. It is adopted tagged with its own original
		// threshold: Explanations re-checks that against the current
		// minCount and falls back to a full mine on any mismatch.
		dst.adoptMineCache(m.mineTab, m.mineMin)
	} else if deltaOK {
		dst.stageDelta(m.mineTab, m.mineMin, stagedPaths)
	}
	// Account only this call's outcome: dst is usually a fresh clone
	// (stats zero), but the shared single-shard path may hand the same
	// retained snapshot to several polls, so the delta — not the
	// cumulative explainer counters — is what this poll contributed.
	pre := dst.stats
	exps := dst.Explanations()
	m.stats.Add(dst.stats.Sub(pre))
	// Harvest the merged mine for the next poll and remember the
	// pre-merge shard signatures it corresponds to.
	m.mineTab, m.mineMin, m.mineOK = dst.mineCache, dst.mineCacheMin, dst.mineCacheOK
	m.sigs = append(m.sigs[:0], sigs...)
	m.exps = exps
	m.valid = true
	return slices.Clone(exps)
}
