package explain

import (
	"slices"

	"macrobase/internal/core"
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
	c := &Streaming{
		cfg:      s.cfg,
		outAttrs: s.outAttrs.Clone(),
		inAttrs:  s.inAttrs.Clone(),
		outTree:  s.outTree.Clone(),
		inTree:   s.inTree.Clone(),
		totalOut: s.totalOut,
		totalIn:  s.totalIn,
		borrowed: slices.Clone(s.borrowed),
	}
	c.ownInliers()
	return c
}

// ownInliers leaves s owning one inlier tree with every transaction it
// answers for: the borrowed trees are folded in (cps.Tree.Merge, the
// union fold every merge used to run). Writers — Consume, Decay,
// Clone — call it first; no poll does.
func (s *Streaming) ownInliers() {
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
func (s *Streaming) Merge(other *Streaming) { mergeInto(s, []*Streaming{other}) }

// mergeInto folds rest into dst in shard order, the reduction under
// every merged poll. It is deliberately NOT a pairwise merge tree over
// shards: float addition is non-associative and merged-tree chain order
// depends on insertion order, so reassociating the shard folds would
// change low-order bits and canonical-recount accumulation order. The
// inlier trees are borrowed in shard order, which is the order
// filterCombinations sums them in.
func mergeInto(dst *Streaming, rest []*Streaming) {
	for _, sh := range rest {
		dst.outAttrs.Merge(sh.outAttrs)
		dst.inAttrs.Merge(sh.inAttrs)
		dst.outTree.Merge(sh.outTree)
		dst.borrowed = append(append(dst.borrowed, sh.inTree), sh.borrowed...)
		dst.totalOut += sh.totalOut
		dst.totalIn += sh.totalIn
	}
}

// MergeStreamingInto reconciles per-shard explainer states into one
// ranked explanation set, for callers that own shards[0] (a poll over
// throwaway snapshot clones): the rest are folded into it in place.
// With a single shard it queries that state directly, so a one-shard
// sharded run reproduces sequential EWS output exactly. shards[1:] keep
// their summary state (counts, trees, totals) unchanged, but reading
// them is not concurrency-safe: the flat-arena trees serve path
// extraction and support queries out of per-tree reusable scratch, so
// no shard in the slice may be shared with another goroutine during the
// call, and shards[0] aliases their inlier trees afterwards (see
// Streaming.Merge).
func MergeStreamingInto(shards []*Streaming) []core.Explanation {
	if len(shards) == 0 {
		return nil
	}
	m := shards[0]
	mergeInto(m, shards[1:])
	return m.Explanations()
}
