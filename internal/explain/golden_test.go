package explain

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/gen"
)

// The golden tests pin the streaming explainer's ranked output — and
// the sharded merge/clone protocol — on two paper workloads, so that
// internal rewrites of the explanation structures (prefix trees,
// sketches) can be proven output-equivalent: the files under testdata/
// were generated before the flat-arena rewrite and must keep matching
// after it. Regenerate with
//
//	go test ./internal/explain -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden explanation files")

// goldenWorkload builds a deterministic labeled stream from a gen
// dataset: the top outlierRate fraction of metric[0] values are labeled
// outliers, so labeling does not depend on any trainable classifier.
func goldenWorkload(t testing.TB, name string, n int, seed uint64) []core.LabeledPoint {
	t.Helper()
	ds, err := gen.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Seed: seed})
	scores := make([]float64, len(pts))
	for i := range pts {
		scores[i] = pts[i].Metrics[0]
	}
	sort.Float64s(scores)
	cut := scores[int(float64(len(scores))*0.97)]
	labeled := make([]core.LabeledPoint, len(pts))
	for i := range pts {
		label := core.Inlier
		if pts[i].Metrics[0] > cut {
			label = core.Outlier
		}
		labeled[i] = core.LabeledPoint{Point: pts[i], Score: pts[i].Metrics[0], Label: label}
	}
	return labeled
}

// goldenFormat canonicalizes a ranked explanation set. Explanations are
// listed in a deterministic total order (risk ratio desc, support desc,
// item ids asc) and values are rounded to 6 significant digits so the
// format is robust to last-ulp float reassociation while still pinning
// the ranked content exactly.
func goldenFormat(exps []core.Explanation) string {
	type row struct {
		items string
		rr    float64
		sup   float64
	}
	rows := make([]row, 0, len(exps))
	for _, e := range exps {
		cp := append([]int32(nil), e.ItemIDs...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		parts := make([]string, len(cp))
		for i, id := range cp {
			parts[i] = fmt.Sprint(id)
		}
		rows = append(rows, row{items: strings.Join(parts, ","), rr: e.RiskRatio, sup: e.Support})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.rr != b.rr && !(math.IsInf(a.rr, 1) && math.IsInf(b.rr, 1)) {
			return a.rr > b.rr
		}
		if a.sup != b.sup {
			return a.sup > b.sup
		}
		return a.items < b.items
	})
	var sb strings.Builder
	for _, r := range rows {
		rr := "+Inf"
		if !math.IsInf(r.rr, 1) {
			rr = fmt.Sprintf("%.6g", r.rr)
		}
		fmt.Fprintf(&sb, "items=%s support=%.6g rr=%s\n", r.items, r.sup, rr)
	}
	return sb.String()
}

// shardOf assigns a labeled point to one of p shards by attribute-set
// hash, mirroring the sharded engine's partitioner shape (exact
// function is irrelevant; determinism within one process run is not —
// so the test uses a fixed FNV-style fold rather than maphash).
func shardOf(attrs []int32, p int) int {
	h := uint64(1469598103934665603)
	for _, a := range attrs {
		h ^= uint64(uint32(a))
		h *= 1099511628211
	}
	return int(h % uint64(p))
}

// goldenStreamingRun replays the workload and returns, for each of
// `pollers` pollers, the outputs of two back-to-back final polls.
// Poller 0 polls the explainer itself and the others each poll a clone
// of it, all at once: clones share no poll scratch with their source
// or with each other. Mid-stream polls are issued along the way: a poll
// must be side-effect-free, so a polled-while-running explainer still
// has to reproduce the committed golden files bit-for-bit.
func goldenStreamingRun(labeled []core.LabeledPoint, cfg StreamingConfig, decayEvery, pollers int) [][2]string {
	s := NewStreaming(cfg)
	for i := 0; i < len(labeled); i += 500 {
		end := i + 500
		if end > len(labeled) {
			end = len(labeled)
		}
		s.Consume(labeled[i:end])
		if (i/500)%(decayEvery/500) == decayEvery/500-1 {
			s.Decay()
		}
		if (i/500)%7 == 3 {
			s.Explanations() // mid-stream poll
		}
	}
	views := []*Streaming{s}
	for len(views) < pollers {
		views = append(views, s.Clone())
	}
	return pollConcurrently(pollers, func(p int) string { return goldenFormat(views[p].Explanations()) })
}

// pollConcurrently runs poll twice for each of `pollers` pollers, the
// pollers on their own goroutines, and returns each poller's two
// answers.
func pollConcurrently(pollers int, poll func(p int) string) [][2]string {
	out := make([][2]string, pollers)
	var wg sync.WaitGroup
	for p := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[p] = [2]string{poll(p), poll(p)}
		}()
	}
	wg.Wait()
	return out
}

// goldenShardedRun partitions the stream across 3 explainers, decaying
// all shards on a shared clock, then reconciles via clone + merge —
// the same protocol the sharded engine's poll path uses. It returns,
// for each of `pollers` concurrent pollers, two merged polls, each over
// fresh clones of the unchanged shards (taken before the pollers start,
// as a session's shard workers hand them over).
func goldenShardedRun(labeled []core.LabeledPoint, cfg StreamingConfig, decayEvery, pollers int) [][2]string {
	const p = 3
	shards := make([]*Streaming, p)
	bufs := make([][]core.LabeledPoint, p)
	for i := range shards {
		shards[i] = NewStreaming(cfg)
	}
	since := 0
	for i := range labeled {
		sh := shardOf(labeled[i].Attrs, p)
		bufs[sh] = append(bufs[sh], labeled[i])
		since++
		if since == decayEvery || i == len(labeled)-1 {
			for j := range shards {
				shards[j].Consume(bufs[j])
				bufs[j] = bufs[j][:0]
			}
			if since == decayEvery {
				for j := range shards {
					shards[j].Decay()
				}
				since = 0
			}
		}
	}
	clones := make([][][]*Streaming, pollers)
	for i := range clones {
		for range 2 {
			round := make([]*Streaming, p)
			for j := range shards {
				round[j] = shards[j].Clone()
			}
			clones[i] = append(clones[i], round)
		}
	}
	polled := make([]int, pollers) // each poller's goroutine touches only its own slot
	return pollConcurrently(pollers, func(i int) string {
		round := clones[i][polled[i]]
		polled[i]++
		return goldenFormat(MergeStreamingInto(round))
	})
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s: ranked explanations diverged from golden\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// TestGoldenStreamingExplanations holds both poll modes to the
// committed goldens with W = 1, 2 and 4 concurrent pollers, each
// polling twice: every answer must match.
func TestGoldenStreamingExplanations(t *testing.T) {
	cfg := StreamingConfig{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05, amcSize: 1 << 20}
	for _, w := range []struct {
		name string
		n    int
		seed uint64
	}{{"CMT", 40_000, 17}, {"Liquor", 40_000, 23}} {
		labeled := goldenWorkload(t, w.name, w.n, w.seed)
		for _, pollers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/sequential/W%d", w.name, pollers), func(t *testing.T) {
				checkPolls(t, "golden_"+w.name+"_seq.txt", goldenStreamingRun(labeled, cfg, 8000, pollers))
			})
			t.Run(fmt.Sprintf("%s/sharded/W%d", w.name, pollers), func(t *testing.T) {
				checkPolls(t, "golden_"+w.name+"_sharded.txt", goldenShardedRun(labeled, cfg, 9000, pollers))
			})
		}
	}
}

// checkPolls holds the first poller's first answer to the golden file
// and every other answer to that one.
func checkPolls(t *testing.T, name string, polls [][2]string) {
	t.Helper()
	first := polls[0][0]
	checkGolden(t, name, first)
	for p, answers := range polls {
		for k, got := range answers {
			if got != first {
				t.Errorf("poller %d, poll %d diverged from the first:\n--- first ---\n%s--- got ---\n%s", p, k+1, first, got)
			}
		}
	}
}
