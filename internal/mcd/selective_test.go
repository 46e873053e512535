package mcd

// Selective iteration at the full-data level — two C-steps for each of
// the trial stage's survivors, then only the leader concentrates — is a
// change of answer against FastMCD's m_full = 10 ("converge all ten, keep
// the lowest determinant"). The tests here state how large: fitAllTen is
// that schedule, reachable from nothing else, and the basin tests hold
// the property converging all ten was hedging.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"macrobase/internal/gen"
	"macrobase/internal/stats"
)

// fitAllTen is Fit with every trial-stage survivor concentrated to its
// fixed point on the full data and the lowest determinant kept, and the
// number of full-data C-steps that took.
func fitAllTen(pts [][]float64, cfg Config) (*Estimate, int, error) {
	cfg = cfg.withDefaults()
	h := defaultH(len(pts), len(pts[0]), cfg.SupportFraction)
	cs := newCStepper(pts, h)
	best, total := candidate{logDet: math.Inf(1)}, 0
	for _, c := range trialCandidates(cs, cfg, fitRNG(cfg.Seed)) {
		logDet, steps, err := cs.converge(c.mean, c.cov, cfg.MaxCSteps)
		total += steps
		if err == nil && logDet < best.logDet {
			best = candidate{mean: c.mean, cov: c.cov, logDet: logDet}
		}
	}
	if math.IsInf(best.logDet, 1) {
		return nil, total, errors.New("mcd: concentration failed on all candidates")
	}
	est, err := finalize(pts, best.mean, best.cov, h)
	return est, total, err
}

// fitRNG is the generator Fit derives from a seed.
func fitRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}

// rawLogDet is the MCD objective at est: the log-determinant of the
// covariance of the h points nearest it. The consistency correction only
// rescales distances, so these are the points the fit ended on.
func rawLogDet(t *testing.T, pts [][]float64, est *Estimate) float64 {
	t.Helper()
	mean, cov := append([]float64(nil), est.Mean...), est.Cov.Clone()
	logDet, err := newCStepper(pts, est.H).step(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	return logDet
}

// outlierSet is the indexes of the points scoring above the q-quantile
// of all scores, and that cutoff.
func outlierSet(pts [][]float64, est *Estimate, q float64) (map[int]bool, float64) {
	scores := make([]float64, len(pts))
	for i, x := range pts {
		scores[i] = est.Score(x)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[int(q*float64(len(sorted)-1))]
	set := make(map[int]bool)
	for i, s := range scores {
		if s > cut {
			set[i] = true
		}
	}
	return set, cut
}

func jaccard(a, b map[int]bool) float64 {
	both := 0
	for i := range a {
		if b[i] {
			both++
		}
	}
	if union := len(a) + len(b) - both; union > 0 {
		return float64(both) / float64(union)
	}
	return 1
}

// datasetRows is the metric vectors of the first n points of a gen
// dataset, as the MCDFit kernels and the end-to-end workloads draw them.
func datasetRows(t *testing.T, name string, n int) [][]float64 {
	t.Helper()
	ds, err := gen.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Seed: 42})
	rows := make([][]float64, len(pts))
	for i := range pts {
		rows[i] = pts[i].Metrics
	}
	return rows
}

// TestSelectiveIterationQuality bounds the answer change against
// fitAllTen, fit seed by fit seed on the same data: the objective may be
// worse only by what separates fixed points of one basin, which is less
// than a reseeded reference moves by itself; the points flagged at the
// 99th percentile are nearly the same; and the full-data C-steps are
// 2·TopKeep for the ranking plus one candidate's convergence.
func TestSelectiveIterationQuality(t *testing.T) {
	if qualitySeeds < 12 {
		t.Skip("a statistic over fit seeds: the race build's sample is too small for it")
	}
	type shape struct {
		dataset string
		n       int
	}
	shapes := []shape{{"CMT", 10_000}, {"Liquor", 10_000}, {"Telecom", 10_000}, {"CMT", 40_000}}
	for _, n := range []int{200, 601, 1000, 2000, 5000} {
		shapes = append(shapes, shape{"CMT", n}, shape{"Liquor", n})
	}
	t.Logf("%-8s %6s %2s | %9s %9s %9s | %7s | %6s %6s", "dataset", "n", "p", "gap mean", "gap max", "ref range", "jaccard", "steps", "ref")
	for _, sh := range shapes {
		pts := datasetRows(t, sh.dataset, sh.n)
		cfg := Config{}.withDefaults()
		var gapSum, gapMax, minJ float64 = 0, 0, 1
		refLo, refHi := math.Inf(1), math.Inf(-1)
		steps, refSteps := 0, 0
		// Small fits land on one of a handful of fixed points, so a range
		// over few seeds is often zero; they are cheap, so they get more.
		seeds := qualitySeeds
		if sh.n < 5000 {
			seeds *= 4
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			cfg.Seed = seed
			got, err := Fit(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, refTotal, err := fitAllTen(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ld, refLD := rawLogDet(t, pts, got), rawLogDet(t, pts, ref)
			gap := ld - refLD
			gapSum += gap
			gapMax = math.Max(gapMax, gap)
			refLo, refHi = math.Min(refLo, refLD), math.Max(refHi, refLD)
			a, _ := outlierSet(pts, got, 0.99)
			b, _ := outlierSet(pts, ref, 0.99)
			minJ = math.Min(minJ, jaccard(a, b))
			// Every survivor takes its two ranking steps; got.CSteps counts
			// the winner's two and its convergence.
			total := 2*cfg.TopKeep + got.CSteps - 2
			if total > 2*cfg.TopKeep+cfg.MaxCSteps {
				t.Errorf("%s n=%d seed %d: %d full-data C-steps", sh.dataset, sh.n, seed, total)
			}
			steps += total
			refSteps += refTotal
		}
		bound := 5e-2
		if sh.n >= 5000 {
			bound = 2e-4
			if minJ < 0.9 {
				t.Errorf("%s n=%d: 99th-percentile outlier sets overlap %.3f Jaccard, want >= 0.9", sh.dataset, sh.n, minJ)
			}
		}
		if own := 4*(refHi-refLo) + 2e-4; gapMax > bound || gapMax > own {
			t.Errorf("%s n=%d: raw log-det up to %.3g above converge-all-ten, want <= %.3g and <= %.3g (4x its own range over the seeds + 2e-4)", sh.dataset, sh.n, gapMax, bound, own)
		}
		if sh.n == 10_000 && float64(steps) > 0.4*float64(refSteps) {
			t.Errorf("%s n=%d: %d full-data C-steps, converge-all-ten %d: more than 40%%", sh.dataset, sh.n, steps, refSteps)
		}
		t.Logf("%-8s %6d %2d | %9.2e %9.2e %9.2e | %7.3f | %6.1f %6.1f", sh.dataset, sh.n, len(pts[0]), gapSum/float64(seeds), gapMax, refHi-refLo, minJ, float64(steps)/float64(seeds), float64(refSteps)/float64(seeds))
	}
}

// twoBasins is n points in p dimensions: a clean unit Gaussian at the
// origin and, for a frac share of the indexes, a contaminating one of
// standard deviation scale at 8 in every coordinate.
func twoBasins(n, p int, frac, scale float64, seed uint64) (pts [][]float64, isContam []bool) {
	rng := rand.New(rand.NewPCG(seed, 0xba51))
	pts, isContam = make([][]float64, n), make([]bool, n)
	for i := range pts {
		isContam[i] = rng.Float64() < frac
		x := make([]float64, p)
		for j := range x {
			x[j] = rng.NormFloat64()
			if isContam[i] {
				x[j] = 8 + scale*x[j]
			}
		}
		pts[i] = x
	}
	return pts, isContam
}

// checkCleanBasin: est sits on the clean mode (every coordinate of the
// mean within 0.1 sigma of it) and every contaminating point scores above
// the clean points' 99th percentile.
func checkCleanBasin(t *testing.T, label string, pts [][]float64, isContam []bool, est *Estimate) {
	t.Helper()
	for j, m := range est.Mean {
		if math.Abs(m) > 0.1 {
			t.Errorf("%s: fitted mean[%d] = %.3f, want within 0.1 of the clean mode", label, j, m)
		}
	}
	var clean [][]float64
	for i, x := range pts {
		if !isContam[i] {
			clean = append(clean, x)
		}
	}
	_, cut := outlierSet(clean, est, 0.99)
	for i, x := range pts {
		if isContam[i] && est.Score(x) <= cut {
			t.Errorf("%s: contaminating point %d scores %.2f, clean 99th percentile %.2f", label, i, est.Score(x), cut)
			return
		}
	}
}

// TestLeaderIsInMajorityBasin: what converging ten candidates hedged
// against is a leader in the wrong basin. Two full-data C-steps are enough
// to rank basins, because a candidate sitting on a minority cluster has to
// bridge to the majority to cover h points and its determinant says so at
// once.
func TestLeaderIsInMajorityBasin(t *testing.T) {
	for _, c := range []struct {
		p    int
		frac float64
	}{{3, 0.30}, {5, 0.45}} {
		for seed := uint64(1); seed <= qualitySeeds; seed++ {
			pts, isContam := twoBasins(10_000, c.p, c.frac, 1, seed)
			est, err := Fit(pts, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			checkCleanBasin(t, fmt.Sprintf("p=%d %.0f%% seed %d", c.p, 100*c.frac, seed), pts, isContam, est)
		}
	}

	// The split case. Survivors in both basins take a sample in which the
	// minority cluster is the majority; here they are made directly, by
	// the trial stage run on 300 points of one cluster at a time. The
	// contaminating cluster is the tighter one, so its candidates arrive
	// with the lower determinants and ahead in rank — the ranking a merged
	// set would have handed over — and from one to nine of the ten are its.
	t.Run("split", func(t *testing.T) {
		const n, p = 10_000, 3
		for seed := uint64(1); seed <= qualitySeeds; seed++ {
			pts, isContam := twoBasins(n, p, 0.30, 0.5, seed)
			var clean, contam [][]float64
			for i, x := range pts {
				if isContam[i] {
					contam = append(contam, x)
				} else {
					clean = append(clean, x)
				}
			}
			cfg := Config{Seed: seed}.withDefaults()
			rng := fitRNG(seed)
			k := 1 + int(seed-1)%(cfg.TopKeep-1)
			cands := runTrials(newCStepper(contam[:300], 151), 100, k, rng)
			cands = append(cands, runTrials(newCStepper(clean[:300], 151), 100, cfg.TopKeep-k, rng)...)
			if len(cands) != cfg.TopKeep || cands[k-1].logDet >= cands[k].logDet {
				t.Fatalf("seed %d: %d candidates, last contaminated logDet %v, first clean %v: not the case this was built to be", seed, len(cands), cands[k-1].logDet, cands[k].logDet)
			}
			cs := newCStepper(pts, defaultH(n, p, 0))
			ranked := refine(cs, cands, len(cands))
			if len(ranked) != cfg.TopKeep || math.Abs(ranked[0].mean[0]) > 1 {
				t.Fatalf("seed %d, %d of %d survivors contaminated: the leader after two full-data C-steps has mean %v", seed, k, len(ranked), ranked[0].mean)
			}
			lead, _, err := convergeLeader(cs, ranked, cfg.MaxCSteps)
			if err != nil {
				t.Fatal(err)
			}
			est, err := finalize(pts, lead.mean, lead.cov, cs.h)
			if err != nil {
				t.Fatal(err)
			}
			checkCleanBasin(t, fmt.Sprintf("split seed %d (%d of %d survivors contaminated)", seed, k, len(ranked)), pts, isContam, est)
		}
	})
}

// TestFallThroughPastFailedLeader: a leader whose concentration stops
// factoring costs the fit nothing but that candidate — the next in rank
// is concentrated instead — and the fit fails only when all of them do.
func TestFallThroughPastFailedLeader(t *testing.T) {
	pts := gaussMix(2000, 3, 1)
	cfg := Config{Seed: 1}.withDefaults()
	cs := newCStepper(pts, defaultH(len(pts), 3, 0))
	ranked := refine(cs, trialCandidates(cs, cfg, fitRNG(cfg.Seed)), cfg.TopKeep)
	if len(ranked) < 3 {
		t.Fatalf("%d ranked candidates", len(ranked))
	}
	want := candidate{mean: append([]float64(nil), ranked[1].mean...), cov: ranked[1].cov.Clone()}
	wantLogDet, wantSteps, err := cs.converge(want.mean, want.cov, cfg.MaxCSteps)
	if err != nil {
		t.Fatal(err)
	}
	// Not positive definite, and with a negative trace no ridge makes it so.
	poison := func(cov *stats.Mat) {
		for i := range cov.Data {
			cov.Data[i] = -1
		}
	}
	poison(ranked[0].cov)
	got, steps, err := convergeLeader(cs, ranked, cfg.MaxCSteps)
	if err != nil {
		t.Fatalf("leader failed and the fit with it: %v", err)
	}
	if steps != wantSteps || got.logDet != wantLogDet || estimateDiff(got.mean, got.cov, got.logDet, want.mean, want.cov, wantLogDet) != 0 {
		t.Errorf("fell through to logDet %v after %d steps, want the second-ranked candidate's %v after %d", got.logDet, steps, wantLogDet, wantSteps)
	}
	for _, c := range ranked {
		poison(c.cov)
	}
	if _, _, err := convergeLeader(cs, ranked, cfg.MaxCSteps); err == nil {
		t.Error("every candidate failed to factor and the fit did not")
	}
}
