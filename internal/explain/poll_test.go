package explain

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"macrobase/internal/core"
)

// pollWorkload builds a deterministic labeled batch: ~25% outliers,
// attributes drawn from a small universe with a planted hot
// combination among the outliers so mining always has work to do.
func pollWorkload(rng *rand.Rand, n int) []core.LabeledPoint {
	batch := make([]core.LabeledPoint, n)
	for i := range batch {
		p := &batch[i]
		p.Label = core.Inlier
		if rng.IntN(4) == 0 {
			p.Label = core.Outlier
		}
		nAttrs := 1 + rng.IntN(3)
		seen := map[int32]bool{}
		if p.Label == core.Outlier && rng.IntN(2) == 0 {
			seen[1], seen[2] = true, true // planted combination
		}
		for len(seen) < nAttrs {
			seen[int32(rng.IntN(10))] = true
		}
		// Sorted, not map-iteration order: deterministic per seed.
		for a := range seen {
			p.Attrs = append(p.Attrs, a)
		}
		slices.Sort(p.Attrs)
		p.Score = float64(i)
	}
	return batch
}

// TestPollAllocationsAtW1 pins what a poll allocates on its one worker,
// the polling goroutine: the miner frames and staging buffers are
// pooled scratch, not per-poll garbage. A poll after a decay tick
// allocates 13 times here (go1.24): the singles, the few combinations
// the mine of the qualified projection finds, and their slices. The
// bound is that plus 3, one more regrowth of a result slice; it was 73
// while every poll mined the whole outlier tree (66 measured).
func TestPollAllocationsAtW1(t *testing.T) {
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		t.Skipf("parent figures were measured on go1.24, not %s (the runtime's own allocations, maps above all, differ by toolchain)", runtime.Version())
	}
	cfg := StreamingConfig{MinSupport: 0.01, MinRiskRatio: 1.1, DecayRate: 0.1}
	rng := rand.New(rand.NewPCG(21, 22))
	s := NewStreaming(cfg)
	s.Consume(pollWorkload(rng, 4000))
	s.Explanations()

	full := testing.AllocsPerRun(10, func() {
		s.Decay()
		s.Explanations()
	})
	if full > 16 {
		t.Errorf("warmed poll after a decay tick allocates %v, want <= 16", full)
	}
	t.Logf("warmed poll after a decay tick: %v allocs", full)
}
