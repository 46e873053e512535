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
// writes. Inlier trees s only borrows (see Merge) are folded into the
// clone's own.
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

// SnapshotClone is Clone under the name the end-to-end benchmark's
// staged replay (bench/replay.go) times as a poll's snapshot step.
func (s *Streaming) SnapshotClone() *Streaming { return s.Clone() }

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
// output exactly. With several shards it merges a copy of the first
// input's sketches and outlier tree (its inlier tree, like every
// other's, is only counted on), leaving every shard's summary state
// untouched. Reading the inputs runs through per-tree scratch, so none
// of them may be shared with another goroutine during the call.
func MergeStreaming(shards []*Streaming) []core.Explanation {
	if len(shards) > 1 {
		owned := append([]*Streaming{shards[0].cloneWith(shards[0].cfg.parallelism(), mergeLegs)}, shards[1:]...)
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
