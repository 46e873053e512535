package mcd

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"macrobase/internal/stats"
)

// tol is the relative agreement required between the select-based
// kernel and the sort-based oracle. The two differ only in the order the
// h rows of a subset are summed, which moves results by a few ulps per
// step; 1e-9 leaves room for a hundred steps of that and none for a
// different subset.
const tol = 1e-9

// relDiff is |a-b| relative to the larger of |a|, |b| and scale: scale is
// the quantity's natural magnitude, so an entry that cancels to almost
// nothing is not held to digits it never had.
func relDiff(a, b, scale float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), scale)
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// estimateDiff is the largest relDiff between two (mean, cov, logDet)
// triples: means against their standard deviation, covariances against
// the two standard deviations' product, log-determinants against 1.
func estimateDiff(m1 []float64, c1 *stats.Mat, ld1 float64, m2 []float64, c2 *stats.Mat, ld2 float64) float64 {
	worst := relDiff(ld1, ld2, 1)
	sd := make([]float64, len(m1))
	for i := range sd {
		sd[i] = math.Sqrt(math.Max(c1.At(i, i), c2.At(i, i)))
	}
	for i := range m1 {
		worst = math.Max(worst, relDiff(m1[i], m2[i], sd[i]))
		for j := range m1 {
			worst = math.Max(worst, relDiff(c1.At(i, j), c2.At(i, j), sd[i]*sd[j]))
		}
	}
	return worst
}

// gaussMix is n correlated p-dimensional Gaussian points, one in five
// moved to a tighter cluster eight units away in every dimension.
func gaussMix(n, p int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	mix := make([][]float64, p)
	for i := range mix {
		mix[i] = make([]float64, i+1)
		for j := 0; j < i; j++ {
			mix[i][j] = rng.NormFloat64() * 0.5
		}
		mix[i][i] = 1 + rng.Float64()
	}
	pts := make([][]float64, n)
	z := make([]float64, p)
	for k := range pts {
		scale, shift := 1.0, 0.0
		if rng.IntN(5) == 0 {
			scale, shift = 0.5, 8
		}
		for i := range z {
			z[i] = rng.NormFloat64() * scale
		}
		x := make([]float64, p)
		for i := range x {
			for j, m := range mix[i] {
				x[i] += m * z[j]
			}
			x[i] += shift
		}
		pts[k] = x
	}
	return pts
}

// oracleShapes are the datasets the kernel is compared with the oracle
// on: both trial paths and their boundary (smallN is 600), the streaming
// refit's size, exact distance ties (duplicated rows), and a covariance
// only the ridge can factor (constant column; every start grows to the
// whole dataset there, so it runs fewer trials).
var oracleShapes = []struct {
	name string
	cfg  Config
	data func(seed uint64) [][]float64
}{
	{"n50-p2", Config{}, func(s uint64) [][]float64 { return gaussMix(50, 2, s) }},
	{"n600-p3", Config{}, func(s uint64) [][]float64 { return gaussMix(600, 3, s) }},
	{"n601-p7", Config{}, func(s uint64) [][]float64 { return gaussMix(601, 7, s) }},
	{"n10k-p7", Config{}, func(s uint64) [][]float64 { return gaussMix(10_000, 7, s) }},
	{"dup-rows", Config{}, func(s uint64) [][]float64 {
		pool := gaussMix(80, 3, s)
		rng := rand.New(rand.NewPCG(s, 7))
		pts := make([][]float64, 400)
		for i := range pts {
			pts[i] = pool[rng.IntN(len(pool))]
		}
		return pts
	}},
	{"const-col", Config{Trials: 40}, func(s uint64) [][]float64 {
		pts := gaussMix(120, 3, s)
		for _, x := range pts {
			x[1] = 5
		}
		return pts
	}},
}

// TestStepMatchesOracle runs the kernel's C-step and the oracle's from
// the same (mean, cov), step after step: both see bit-identical
// distances, so the kernel must keep exactly the oracle's first h — the h
// smallest under (distance, index), which without a tie across the
// boundary is the h smallest under any ranking by distance — and
// re-estimate from them to within tol.
func TestStepMatchesOracle(t *testing.T) {
	for _, sh := range oracleShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			worst, steps, ties := 0.0, 0, 0
			for seed := uint64(0); seed < oracleSeeds; seed++ {
				pts := sh.data(seed)
				n, p := len(pts), len(pts[0])
				h := defaultH(n, p)
				cs, os := newCStepper(pts, h), newOracleStepper(pts, h)
				rng := rand.New(rand.NewPCG(seed, 5))
				mean, cov := make([]float64, p), stats.NewMat(p, p)
				for start := 0; start < 2; start++ {
					cs.start(mean, cov, rng)
					for step := 0; step < 5; step++ {
						om, oc, old, oerr := os.step(mean, cov)
						ld, err := cs.step(mean, cov)
						if (err != nil) != (oerr != nil) {
							t.Fatalf("seed %d: kernel error %v, oracle error %v", seed, err, oerr)
						}
						if err != nil {
							break
						}
						steps++
						if !sameSet(cs.idx, os.idx[:h]) {
							t.Fatalf("seed %d start %d step %d: kernel did not keep the oracle's %d closest", seed, start, step, h)
						}
						if os.d2[os.idx[h-1]] == os.d2[os.idx[h]] {
							ties++
						}
						if d := estimateDiff(mean, cov, ld, om, oc, old); d > tol {
							t.Fatalf("seed %d start %d step %d: estimate differs from the oracle's by %.3g relative", seed, start, step, d)
						} else if d > worst {
							worst = d
						}
					}
				}
			}
			t.Logf("%d C-steps (%d with a tie across the h boundary), largest relative difference %.3g", steps, ties, worst)
		})
	}
}

// sameSet reports whether ascending holds exactly the members of other.
func sameSet(ascending, other []int) bool {
	if len(ascending) != len(other) {
		return false
	}
	sorted := append([]int(nil), other...)
	sort.Ints(sorted)
	for i, v := range ascending {
		if sorted[i] != v {
			return false
		}
	}
	return true
}

// soloStepper is newCStepper with the crew of a fit on one goroutine: no
// helpers, so the stepper takes every candidate's steps itself.
func soloStepper(pts [][]float64, h int) *cStepper {
	cs := newCStepper(pts, h)
	cs.crew = startCrew(pts, h, 0)
	return cs
}

// trialLogDets runs Fit's trial stage and its full-data ranking as Fit
// sets them up and returns the candidates' log-determinants out of the
// one and, in rank order, out of the other, and the generator's next
// value once the trials are done.
func trialLogDets(pts [][]float64, cfg Config) (logDets, ranked []float64, afterRNG uint64) {
	cfg = cfg.withDefaults()
	rng := fitRNG(cfg.Seed)
	cs := soloStepper(pts, defaultH(len(pts), len(pts[0])))
	cand := trialCandidates(cs, cfg, rng)
	for _, c := range cand {
		logDets = append(logDets, c.logDet)
	}
	for _, c := range refine(cs, cand, len(cand)) {
		ranked = append(ranked, c.logDet)
	}
	return logDets, ranked, rng.Uint64()
}

// TestFitMatchesOracle compares whole fits: the trial stage leaves the
// generator in the same state (it drew the same numbers) and hands the
// same candidates to the full-data stage, two C-steps there rank them the
// same, the same candidate wins after the same number of steps, and the
// estimate agrees to within tol.
func TestFitMatchesOracle(t *testing.T) {
	for _, sh := range oracleShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			worst := 0.0
			for seed := uint64(0); seed < oracleSeeds; seed++ {
				pts := sh.data(seed)
				cfg := sh.cfg
				cfg.Seed = seed
				want, err := oracleFit(pts, cfg)
				if err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				cands, ranked, afterRNG := trialLogDets(pts, cfg)
				if afterRNG != want.afterRNG {
					t.Fatalf("seed %d: the trial stage consumed different random draws than the oracle's", seed)
				}
				if len(cands) != len(want.cands) {
					t.Fatalf("seed %d: %d candidates, oracle %d", seed, len(cands), len(want.cands))
				}
				for i := range cands {
					if d := relDiff(cands[i], want.cands[i], 1); d > tol {
						t.Fatalf("seed %d: candidate %d logDet %v, oracle %v", seed, i, cands[i], want.cands[i])
					}
				}
				if len(ranked) != len(want.ranked) {
					t.Fatalf("seed %d: %d candidates ranked on the full data, oracle %d", seed, len(ranked), len(want.ranked))
				}
				for i := range ranked {
					if d := relDiff(ranked[i], want.ranked[i], 1); d > tol {
						t.Fatalf("seed %d: rank %d after two full-data C-steps has logDet %v, oracle %v", seed, i, ranked[i], want.ranked[i])
					}
				}
				got, err := Fit(pts, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got.H != want.est.H || got.CSteps != want.est.CSteps {
					t.Fatalf("seed %d: H %d CSteps %d, oracle H %d CSteps %d: a different candidate won", seed, got.H, got.CSteps, want.est.H, want.est.CSteps)
				}
				d := estimateDiff(got.Mean, got.Cov, got.LogDet, want.est.Mean, want.est.Cov, want.est.LogDet)
				if d > tol {
					t.Fatalf("seed %d: estimate differs from the oracle's by %.3g relative", seed, d)
				}
				worst = math.Max(worst, d)
			}
			t.Logf("%d fits, largest relative difference in Mean/Cov/LogDet %.3g", oracleSeeds, worst)
		})
	}
}

// overflowRows is gaussMix with every thirtieth row moved to 1e200 in
// each coordinate: finite input whose covariance overflows, so a trial
// whose start holds such a row stops factoring, in every subset of the
// nested path, while the other trials succeed.
func overflowRows(n, p int, seed uint64) [][]float64 {
	pts := gaussMix(n, p, seed)
	for i := 0; i < n; i += 30 {
		for j := range pts[i] {
			pts[i][j] = 1e200
		}
	}
	return pts
}

// TestRefineKeepsEveryBuffer: refine only permutes its candidates, with
// the ones that stopped factoring behind the survivors, so a slab the
// nested path refines once per subset keeps one distinct set of buffers.
func TestRefineKeepsEveryBuffer(t *testing.T) {
	pts := gaussMix(200, 3, 1)
	cs := soloStepper(pts, defaultH(len(pts), 3))
	rng := rand.New(rand.NewPCG(1, 2))
	cands := candidateSlab(8, 3)
	before := map[*float64]bool{}
	for i, c := range cands {
		cs.start(c.mean, c.cov, rng)
		if i%3 == 1 { // an estimate no ridge factors
			for j := range c.cov.Data {
				c.cov.Data[j] = math.Inf(1)
			}
		}
		before[&c.mean[0]], before[&c.cov.Data[0]] = true, true
	}
	kept := refine(cs, cands, 3)
	if len(kept) != 3 {
		t.Fatalf("kept %d candidates, want 3", len(kept))
	}
	after := map[*float64]bool{}
	for i, c := range cands {
		if failed := c.err != nil; failed != (i >= 5) {
			t.Errorf("slot %d: err %v; the five that factor come first", i, c.err)
		}
		after[&c.mean[0]], after[&c.cov.Data[0]] = true, true
	}
	if len(after) != len(before) {
		t.Fatalf("%d distinct buffers after refine, %d before", len(after), len(before))
	}
	for b := range before {
		if !after[b] {
			t.Fatal("refine dropped a buffer from the slab")
		}
	}
}

// TestFitWithFailingTrialsMatchesParent: a nested fit over rows whose
// covariance overflows, where trials in every subset stop factoring, is
// the parent commit's fit to the bit on any worker count (digests
// recorded there, as TestFitBitsMatchParent's) and agrees with the
// oracle.
func TestFitWithFailingTrialsMatchesParent(t *testing.T) {
	parent := []uint64{0x660b4076aea47fa9, 0x274ac709ae9b954d, 0xc186937a824aed73, 0xfcc05558761eeb5d}
	for seed := uint64(0); seed < uint64(len(parent)); seed++ {
		pts := overflowRows(1500, 3, seed)
		cfg := Config{Seed: seed}
		want, err := oracleFit(pts, cfg)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for _, w := range []int{1, 2, 4} {
			est, err := fit(pts, cfg, w)
			if err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, w, err)
			}
			if got := fitDigest(pts, est); runtime.GOARCH == "amd64" && got != parent[seed] {
				t.Errorf("seed %d, %d workers: digest %#x, parent %#x", seed, w, got, parent[seed])
			}
			if est.CSteps != want.est.CSteps {
				t.Errorf("seed %d, %d workers: %d C-steps, oracle %d", seed, w, est.CSteps, want.est.CSteps)
			}
			if d := estimateDiff(est.Mean, est.Cov, est.LogDet, want.est.Mean, want.est.Cov, want.est.LogDet); d > tol {
				t.Errorf("seed %d, %d workers: estimate differs from the oracle's by %.3g relative", seed, w, d)
			}
		}
	}
}

// TestStartSequenceMatchesParent: the starts a trial loop tries are the
// parent commit's, draw for draw. The digests were recorded there, from
// a hook in its runTrials (seed 3 of each shape, generator PCG(3, 11),
// 200 starts); the oracle, which still dedupes draws through a map, has
// to reproduce them too.
func TestStartSequenceMatchesParent(t *testing.T) {
	parent := map[string]uint64{
		"n50-p2":    0x5590d523649eeb7b,
		"n600-p3":   0x3c74abc4af861a30,
		"n601-p7":   0x4efc587a05b03439,
		"n10k-p7":   0x427406e9907f9182,
		"dup-rows":  0xebe973f3723ab38f,
		"const-col": 0x4949be66433eb59c,
	}
	for _, sh := range oracleShapes {
		pts := sh.data(3)
		n, p := len(pts), len(pts[0])
		const starts = 200
		var got, oracle startHash

		cs := newCStepper(pts, defaultH(n, p))
		rng := rand.New(rand.NewPCG(3, 11))
		mean, cov := make([]float64, p), stats.NewMat(p, p)
		for i := 0; i < starts; i++ {
			cs.start(mean, cov, rng)
			got.add(cs.idx)
		}

		orng := rand.New(rand.NewPCG(3, 11))
		var subset []int
		for i := 0; i < starts; i++ {
			subset, _, _ = oracleStart(pts, subset[:0], orng)
			oracle.add(subset)
		}

		if got.sum != oracle.sum || got.sum != parent[sh.name] {
			t.Errorf("%s: start digest %#x, oracle %#x, parent %#x", sh.name, got.sum, oracle.sum, parent[sh.name])
		}
	}
}

// TestSubsetEdgeCases pins what the h-subset is where the old full sort
// left it to chance.
func TestSubsetEdgeCases(t *testing.T) {
	eye := func() ([]float64, *stats.Mat) {
		cov := stats.NewMat(2, 2)
		cov.Set(0, 0, 1)
		cov.Set(1, 1, 1)
		return []float64{0, 0}, cov
	}
	nan, inf := math.NaN(), math.Inf(1)

	t.Run("boundary tie goes to the lower index", func(t *testing.T) {
		// Distances from the origin: four rows at 1 (indexes 1, 3, 4, 6)
		// straddle h = 4, after two closer rows.
		pts := [][]float64{{9, 9}, {1, 0}, {0.1, 0}, {0, 1}, {-1, 0}, {0, 0.2}, {0, -1}, {7, 7}}
		cs := newCStepper(pts, 4)
		mean, cov := eye()
		if _, err := cs.step(mean, cov); err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 2, 3, 5}; !sameSet(cs.idx, want) {
			t.Errorf("kept %v, want %v", cs.idx, want)
		}
	})

	t.Run("non-finite rows rank last", func(t *testing.T) {
		pts := [][]float64{{nan, 0}, {1, 0}, {0, inf}, {0, 1}, {-inf, 0}, {2, 2}, {0, nan}, {3, 1}}
		cs := newCStepper(pts, 4)
		mean, cov := eye()
		if _, err := cs.step(mean, cov); err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 3, 5, 7}; !sameSet(cs.idx, want) {
			t.Errorf("four finite rows, h = 4: kept %v, want %v", cs.idx, want)
		}
		// With h = 6 only four finite rows exist, so the two lowest-index
		// non-finite rows come along — and poison the estimate, which the
		// step reports instead of hiding.
		cs = newCStepper(pts, 6)
		mean, cov = eye()
		if _, err := cs.step(mean, cov); err == nil {
			t.Error("an estimate over NaN rows factored")
		}
		if want := []int{0, 1, 2, 3, 5, 7}; !sameSet(cs.idx, want) {
			t.Errorf("four finite rows, h = 6: kept %v, want %v", cs.idx, want)
		}
	})

	t.Run("h == n keeps everything without a selection pass", func(t *testing.T) {
		pts := gaussMix(40, 2, 1)
		cs := newCStepper(pts, len(pts))
		mean, cov := eye()
		if _, err := cs.step(mean, cov); err != nil {
			t.Fatal(err)
		}
		for i, ix := range cs.idx {
			if ix != i || cs.ps[i].Idx != i {
				t.Fatalf("position %d: subset index %d, slab index %d; the slab was permuted", i, ix, cs.ps[i].Idx)
			}
		}
		if len(cs.idx) != len(pts) {
			t.Errorf("kept %d of %d", len(cs.idx), len(pts))
		}
	})
}

// TestFitAllocations: a fit's allocations are its stepper, the trial
// starts' buffers that its five subsets take in turn (candidateSlab, four
// allocations), the slab their survivors are copied into (four more), the
// merged set's rows and the estimate (30 here), not a set of buffers per
// stage, C-step, trial or ranked candidate — the merged and full-data
// levels rank the candidates in the storage they came in. The bound
// carries the slack of four TestCrewAllocations explains.
// AllocsPerRun runs at GOMAXPROCS 1, so this is the fit with a crew of no
// helpers (two allocations); TestCrewAllocations bounds the helpers.
func TestFitAllocations(t *testing.T) {
	pts := gaussMix(10_000, 7, 1)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Fit(pts, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 34 {
		t.Errorf("Fit at n=10K p=7 allocated %.0f times, want <= 34", allocs)
	}
	t.Logf("Fit at n=10K p=7: %.0f allocations", allocs)
}

// TestFitBytesPerPoint: a fit's memory is one stepper per goroutine. A
// stepper holds 21 bytes a point (cStepper: its subset indexes are sized
// for h past smallN, not for n), and the fit's other buffers (candidate
// slabs, the merged set's rows, a stepper's fixed scratch) come to about
// 4 bytes a point at 40K rows on one worker and less per worker past it:
// 25.2, 23.5 and 22.0 bytes a point per worker at 1, 2 and 10 workers,
// with or without the race detector (29.3, 27.5 and 26.1 while the
// indexes were sized for n). The bound of 29 leaves the test binary's
// other goroutines about 150 KB at 40K rows, and a second full-data
// buffer on any goroutine breaks it: a fit that also kept an 8-byte
// distance per point read 51.1, 42.5 and 35.7. fit runs any worker count
// on any box, and memory needs no cores.
func TestFitBytesPerPoint(t *testing.T) {
	const n, perPointPerWorker = 40_000, 29
	pts := gaussMix(n, 7, 1)
	for _, w := range []int{1, 2, 10} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := fit(pts, Config{}, w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*w)
		if got > perPointPerWorker {
			t.Errorf("%d workers: %.1f bytes a point per worker, want <= %d", w, got, perPointPerWorker)
		}
		t.Logf("%d workers: %.1f bytes a point per worker", w, got)
	}
}

// TestMedianDistIsStatsMedian: the consistency correction's median, read
// off a stepper's slab, is the value stats.Median gives over the same
// distances, for odd and even counts and with ties across the middle.
func TestMedianDistIsStatsMedian(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for n := 4; n <= 41; n++ {
		for trial := 0; trial < 20; trial++ {
			s := &cStepper{ps: make([]stats.KeyIdx, n)}
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = rng.ExpFloat64()
				if rng.IntN(3) == 0 {
					keys[i] = float64(rng.IntN(3))
				}
				s.ps[i] = stats.KeyIdx{Key: keys[i], Idx: i}
			}
			if got, want := s.medianDist(), stats.Median(keys); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d: %v, stats.Median %v", n, trial, got, want)
			}
		}
	}
	// A NaN distance ranks as +Inf, as a C-step ranks it: the median is
	// stats.Median's over the distances with every NaN read as +Inf.
	for n := 1; n <= 41; n++ {
		for trial := 0; trial < 20; trial++ {
			s := &cStepper{ps: make([]stats.KeyIdx, n)}
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = rng.ExpFloat64()
				s.ps[i] = stats.KeyIdx{Key: keys[i], Idx: i}
				if rng.IntN(4) == 0 {
					keys[i], s.ps[i].Key = math.Inf(1), math.NaN()
				}
			}
			if got, want := s.medianDist(), stats.Median(keys); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d with NaNs: %v, stats.Median with NaN as +Inf %v", n, trial, got, want)
			}
		}
	}
}
