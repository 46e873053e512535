package explain

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"macrobase/internal/core"
)

// fullTableOracle is a poll as it ran before the mine was projected onto
// the qualified attributes: the single-attribute pass, an FPGrowth mine
// of the whole outlier tree, the canonical recount of every
// multi-attribute candidate, and a filter that drops each entry holding
// an attribute that did not qualify on its own before counting the rest
// over the inlier side. dropped is how many recounted entries that
// filter dropped, so a test can tell that the projection had work to
// skip.
func fullTableOracle(s *Streaming) (exps []core.Explanation, dropped int) {
	if s.totalOut <= 0 {
		return nil, 0
	}
	minCount := s.cfg.MinSupport * s.totalOut
	var qualified []bool
	s.outAttrs.ForEach(func(item int32, ao float64) {
		if ao < minCount {
			return
		}
		ai, _ := s.inAttrs.Count(item)
		rr := RiskRatio(ao, ai, s.totalOut, s.totalIn)
		if rr < s.cfg.MinRiskRatio {
			return
		}
		for int(item) >= len(qualified) {
			qualified = append(qualified, false)
		}
		qualified[item] = true
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
entries:
	for _, is := range s.outTree.Mine(minCount*(1-1e-6), nil) {
		if len(is.Items) < 2 {
			continue
		}
		n := s.outTree.ItemsetSupport(is.Items)
		if n < minCount {
			continue
		}
		for _, it := range is.Items {
			if int(it) >= len(qualified) || !qualified[it] {
				dropped++
				continue entries
			}
		}
		ai := s.inTree.ItemsetSupport(is.Items)
		for _, t := range s.borrowed {
			ai += t.ItemsetSupport(is.Items)
		}
		rr := RiskRatio(n, ai, s.totalOut, s.totalIn)
		if rr < s.cfg.MinRiskRatio {
			continue
		}
		exps = append(exps, core.Explanation{
			ItemIDs:       is.Items,
			Support:       n / s.totalOut,
			RiskRatio:     rr,
			OutlierCount:  n,
			InlierCount:   ai,
			TotalOutliers: s.totalOut,
			TotalInliers:  s.totalIn,
		})
	}
	attachCIs(exps, s.cfg.Confidence)
	Rank(exps)
	return exps, dropped
}

// sameExplanationBits describes the first difference between two ranked
// answers, element by element and bit for bit ("" = identical): %+v
// prints every field, each float in the fewest digits that read back as
// its bits.
func sameExplanationBits(got, want []core.Explanation) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = fmt.Sprintf("%+v", got[i])
		}
		if i < len(want) {
			w = fmt.Sprintf("%+v", want[i])
		}
		if g != w {
			return fmt.Sprintf("explanation %d of %d (oracle %d):\n  poll   %s\n  oracle %s", i, len(got), len(want), g, w)
		}
	}
	return ""
}

// projectionStats tallies what a run of projected polls compared.
type projectionStats struct {
	polls, combos, dropped int
}

// checkProjectedPoll polls s and an independent clone of it through the
// oracle and requires the same answer bit for bit. s is polled as it is
// (a merged explainer keeps its borrowed inlier trees).
func checkProjectedPoll(s, oracleCopy *Streaming, st *projectionStats) string {
	want, dropped := fullTableOracle(oracleCopy)
	got := s.Explanations()
	st.polls++
	st.dropped += dropped
	for _, e := range got {
		if len(e.ItemIDs) > 1 {
			st.combos++
		}
	}
	return sameExplanationBits(got, want)
}

// runProjectedPolls replays ops on p shards (p = 0: one explainer polled
// in place) and holds every poll to the oracle. A sharded poll merges
// fresh clones in place (MergeStreamingInto, the session serving path);
// the oracle merges a second set of clones the same way.
func runProjectedPolls(cfg StreamingConfig, ops []diffOp, p int, st *projectionStats) string {
	n := max(p, 1)
	shards := make([]*Streaming, n)
	for i := range shards {
		shards[i] = NewStreaming(cfg)
	}
	for i, op := range ops {
		switch op.kind {
		case diffConsume:
			parts := make([][]core.LabeledPoint, n)
			for j := range op.batch {
				sh := shardOf(op.batch[j].Attrs, n)
				parts[sh] = append(parts[sh], op.batch[j])
			}
			for j, s := range shards {
				s.Consume(parts[j])
			}
		case diffDecay:
			for _, s := range shards {
				s.Decay()
			}
		case diffPoll:
			var msg string
			if p == 0 {
				msg = checkProjectedPoll(shards[0], shards[0].Clone(), st)
			} else {
				polled, oracle := make([]*Streaming, p), make([]*Streaming, p)
				for j, s := range shards {
					polled[j], oracle[j] = s.Clone(), s.Clone()
				}
				mergeInto(polled[0], polled[1:])
				mergeInto(oracle[0], oracle[1:])
				msg = checkProjectedPoll(polled[0], oracle[0], st)
			}
			if msg != "" {
				return fmt.Sprintf("op %d (poll, P=%d): %s", i, p, msg)
			}
		}
	}
	return ""
}

// zipfDiffOps is a stream shaped like the end-to-end workloads: every
// point carries one value of each of six attributes, drawn from a Zipf
// distribution per attribute (ids are attribute*64 + value, dense), and
// outliers over-represent two planted values, so the outlier tree holds
// thousands of frequent itemsets of which few survive the risk ratio.
// A decay tick runs between polls.
func zipfDiffOps(rng *rand.Rand, batches int) []diffOp {
	zipf := rand.NewZipf(rng, 1.4, 1, 63)
	var ops []diffOp
	for b := 0; b < batches; b++ {
		batch := make([]core.LabeledPoint, 400+rng.IntN(400))
		for i := range batch {
			p := &batch[i]
			p.Attrs = make([]int32, 6)
			for a := range p.Attrs {
				p.Attrs[a] = int32(64*a) + int32(zipf.Uint64())
			}
			p.Label = core.Inlier
			odds := 20
			if p.Attrs[1] == 64+3 || p.Attrs[4] == 4*64+5 {
				odds = 3
			}
			if rng.IntN(odds) == 0 {
				p.Label = core.Outlier
			}
		}
		ops = append(ops, diffOp{kind: diffConsume, batch: batch})
		if b%2 == 1 {
			ops = append(ops, diffOp{kind: diffDecay}, diffOp{kind: diffPoll})
		}
	}
	return append(ops, diffOp{kind: diffPoll})
}

// TestProjectedPollMatchesFullTable: a poll mines only the outlier
// tree's projection onto the attributes that qualified on their own, and
// must answer exactly what mining the whole tree and then dropping every
// combination with an unqualified attribute answered — every
// explanation, in order, bit for bit — on workload-shaped Zipf streams,
// on the differential harness's random and degenerate scripts, under
// every diffConfigs entry (Confidence included) and a workload-like
// config, polled in place and merged over 1-4 shards.
func TestProjectedPollMatchesFullTable(t *testing.T) {
	cfgs := append(diffConfigs(), StreamingConfig{MinSupport: 0.01, MinRiskRatio: 3, DecayRate: 0.05, Confidence: 0.95})
	var st projectionStats
	for ci, cfg := range cfgs {
		var scripts [][]diffOp
		for seed := uint64(0); seed < 3; seed++ {
			scripts = append(scripts,
				zipfDiffOps(rand.New(rand.NewPCG(seed, uint64(ci)*613+5)), 8),
				genDiffOps(rand.New(rand.NewPCG(seed, uint64(ci)*977+13)), 60))
		}
		scripts = append(scripts, degenerateDiffOps()...)
		for k, ops := range scripts {
			for p := 0; p <= 4; p++ {
				if msg := runProjectedPolls(cfg, ops, p, &st); msg != "" {
					t.Fatalf("config %d, script %d: %s", ci, k, msg)
				}
			}
		}
	}
	// The comparison has to cover combinations that are reported and
	// mined itemsets that the projection never builds.
	if st.combos == 0 || st.dropped == 0 {
		t.Fatalf("vacuous comparison: %d polls, %d reported combinations, %d dropped table entries", st.polls, st.combos, st.dropped)
	}
	t.Logf("%d polls, %d reported combinations, %d table entries the projection skipped", st.polls, st.combos, st.dropped)
}

// FuzzProjectedPollMatchesFullTable holds the projected poll to the
// oracle on fuzzed scripts, in FuzzStreamingDelta's encoding (see
// runStreamScript), under every diffConfigs entry, polled in place and
// merged over 1-4 shards.
func FuzzProjectedPollMatchesFullTable(f *testing.F) {
	for _, seed := range fuzzSeedScripts() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := scriptDiffOps(data)
		var st projectionStats
		for ci, cfg := range diffConfigs() {
			for p := 0; p <= 4; p++ {
				if msg := runProjectedPolls(cfg, ops, p, &st); msg != "" {
					t.Fatalf("config %d: %s\nops %x", ci, msg, data)
				}
			}
		}
	})
}

// scriptDiffOps decodes a FuzzStreamingDelta script into diffOps, one
// point per insert, with runStreamScript's caps.
func scriptDiffOps(data []byte) []diffOp {
	var ops []diffOp
	inserts, decays, polls := 0, 0, 0
	for i := 0; i < len(data) && inserts < 48 && decays < 12 && polls < 10; i++ {
		op := data[i]
		switch {
		case op < 0xA0:
			var attrs []int32
			for i++; i < len(data) && data[i] < 0xF0 && len(attrs) < 6; i++ {
				if a := int32(data[i] % 9); !slices.Contains(attrs, a) {
					attrs = append(attrs, a)
				}
			}
			slices.Sort(attrs)
			pt := core.LabeledPoint{Point: core.Point{Attrs: attrs}, Label: core.Inlier}
			if op < 0x60 {
				pt.Label = core.Outlier
			}
			ops = append(ops, diffOp{kind: diffConsume, batch: []core.LabeledPoint{pt}})
			inserts++
		case op < 0xD0:
			ops = append(ops, diffOp{kind: diffDecay})
			decays++
		default:
			ops = append(ops, diffOp{kind: diffPoll})
			polls++
		}
	}
	return ops
}
