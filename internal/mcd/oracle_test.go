package mcd

// The sort-based FastMCD this package had before the C-step became a
// selection, kept as the reference the select-based kernel is compared
// against: every C-step ranks all n points with sort.Slice and sums the
// first h in rank order, every candidate is collected and sorted, and
// subset draws dedupe through a map. Its schedule is Fit's — two C-steps
// and keep the best at the subset, merged and full-data levels, then the
// full-data leader alone concentrates — because what the comparison
// holds equal is the C-step, the draws and the ranking, fit for fit. One
// thing is not as it was: the ranking breaks equal distances by index,
// where the old comparator left them to pdqsort. Exact ties across the h
// boundary are not exotic — the p+1 points of a start subset are
// equidistant from their own estimate by construction, and on small data
// (n=50, p=2: about 3 trials in 500) the boundary falls among them — so
// an oracle without the rule would disagree with the kernel, and with
// itself from one sort implementation to the next, about which subset
// such a step keeps. Nothing here is reachable from non-test code.

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"macrobase/internal/stats"
)

func oracleMeanCov(pts [][]float64, idx []int) ([]float64, *stats.Mat) {
	p := len(pts[0])
	mean, cov := make([]float64, p), stats.NewMat(p, p)
	stats.MeanCovInto(mean, cov, pts, idx, nil)
	return mean, cov
}

type oracleStepper struct {
	pts [][]float64
	h   int
	d2  []float64
	idx []int // all n indexes in rank order after a step; idx[:h] was kept
	scr []float64
}

func newOracleStepper(pts [][]float64, h int) *oracleStepper {
	return &oracleStepper{
		pts: pts,
		h:   h,
		d2:  make([]float64, len(pts)),
		idx: make([]int, len(pts)),
		scr: make([]float64, len(pts[0])),
	}
}

// cholWithRidge is factorWithRidge into fresh storage.
func cholWithRidge(cov *stats.Mat) (*stats.Cholesky, error) {
	chol := new(stats.Cholesky)
	if err := factorWithRidge(chol, stats.NewMat(cov.Rows, cov.Cols), cov); err != nil {
		return nil, err
	}
	return chol, nil
}

// oracleFinalize is finalize over a fresh distance buffer, its median
// stats.Median's.
func oracleFinalize(pts [][]float64, mean []float64, cov *stats.Mat, h int) (*Estimate, error) {
	p := len(mean)
	chol, err := cholWithRidge(cov)
	if err != nil {
		return nil, err
	}
	d2 := make([]float64, len(pts))
	for i, x := range pts {
		d2[i] = chol.MahalanobisSq(x, mean, nil)
	}
	factor := stats.Median(d2) / stats.ChiSquareQuantile(0.5, float64(p))
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		factor = 1
	}
	corrected := cov.Clone()
	for i := range corrected.Data {
		corrected.Data[i] *= factor
	}
	cchol, err := cholWithRidge(corrected)
	if err != nil {
		return nil, err
	}
	return &Estimate{Mean: mean, Cov: corrected, LogDet: cchol.LogDet(), H: h, chol: cchol, scratch: make([]float64, p)}, nil
}

func (s *oracleStepper) step(mean []float64, cov *stats.Mat) (nm []float64, nc *stats.Mat, logDet float64, err error) {
	chol, err := cholWithRidge(cov)
	if err != nil {
		return nil, nil, 0, err
	}
	for i, x := range s.pts {
		s.d2[i] = chol.MahalanobisSq(x, mean, s.scr)
		s.idx[i] = i
	}
	sort.Slice(s.idx, func(a, b int) bool {
		da, db := s.d2[s.idx[a]], s.d2[s.idx[b]]
		return da < db || (da == db && s.idx[a] < s.idx[b])
	})
	nm, nc = oracleMeanCov(s.pts, s.idx[:s.h])
	nchol, err := cholWithRidge(nc)
	if err != nil {
		return nil, nil, 0, err
	}
	return nm, nc, nchol.LogDet(), nil
}

func (s *oracleStepper) converge(mean []float64, cov *stats.Mat, maxSteps int) (m []float64, c *stats.Mat, logDet float64, steps int, err error) {
	prev := math.Inf(1)
	m, c = mean, cov
	for steps = 0; steps < maxSteps; steps++ {
		nm, nc, ld, serr := s.step(m, c)
		if serr != nil {
			return nil, nil, 0, steps, serr
		}
		m, c, logDet = nm, nc, ld
		if prev-ld < 1e-12*(1+math.Abs(prev)) {
			return m, c, logDet, steps + 1, nil
		}
		prev = ld
	}
	return m, c, logDet, steps, nil
}

func oracleRandSubset(dst []int, n, k int, rng *rand.Rand) []int {
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	seen := make(map[int]bool, k)
	for len(dst) < k {
		i := rng.IntN(n)
		if !seen[i] {
			seen[i] = true
			dst = append(dst, i)
		}
	}
	return dst
}

func oracleAddRandomPoint(subset []int, n int, rng *rand.Rand) []int {
	in := make(map[int]bool, len(subset))
	for _, i := range subset {
		in[i] = true
	}
	for {
		i := rng.IntN(n)
		if !in[i] {
			return append(subset, i)
		}
	}
}

// oracleRun is what one reference fit leaves behind for comparison.
type oracleRun struct {
	cands    []float64 // log-determinants of the candidates the trial stage returns
	ranked   []float64 // theirs after two full-data C-steps, in rank order
	afterRNG uint64    // the generator's next value once the trials are done
	est      *Estimate
}

// startHash is an order-sensitive digest of a sequence of index subsets.
type startHash struct{ sum uint64 }

func (h *startHash) add(subset []int) {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	put(h.sum)
	put(uint64(len(subset)))
	for _, ix := range subset {
		put(uint64(ix))
	}
	h.sum = f.Sum64()
}

// oracleStart draws one trial's start subset into subset and returns it
// with its estimate.
func oracleStart(pts [][]float64, subset []int, rng *rand.Rand) ([]int, []float64, *stats.Mat) {
	subset = oracleRandSubset(subset, len(pts), len(pts[0])+1, rng)
	mean, cov := oracleMeanCov(pts, subset)
	for len(subset) < len(pts) {
		if new(stats.Cholesky).Factor(cov) == nil {
			break
		}
		subset = oracleAddRandomPoint(subset, len(pts), rng)
		mean, cov = oracleMeanCov(pts, subset)
	}
	return subset, mean, cov
}

func oracleRunTrials(cs *oracleStepper, trials, topKeep int, rng *rand.Rand) []candidate {
	var cands []candidate
	var subset []int
	for t := 0; t < trials; t++ {
		var mean []float64
		var cov *stats.Mat
		subset, mean, cov = oracleStart(cs.pts, subset[:0], rng)
		var err error
		var logDet float64
		for step := 0; step < 2; step++ {
			mean, cov, logDet, err = cs.step(mean, cov)
			if err != nil {
				break
			}
		}
		if err != nil {
			continue
		}
		cands = append(cands, candidate{mean: mean, cov: cov, logDet: logDet})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].logDet < cands[j].logDet })
	if len(cands) > topKeep {
		cands = cands[:topKeep]
	}
	return cands
}

func oracleNestedTrials(pts [][]float64, h int, cfg Config, rng *rand.Rand) []candidate {
	n := len(pts)
	p := len(pts[0])
	const subSize = 300
	nsub := n / subSize
	if nsub > 5 {
		nsub = 5
	}
	if nsub < 1 {
		nsub = 1
	}
	merged := oracleRandSubset(nil, n, nsub*subSize, rng)
	mergedPts := make([][]float64, len(merged))
	for i, ix := range merged {
		mergedPts[i] = pts[ix]
	}
	perSub := cfg.Trials / nsub
	if perSub < 2 {
		perSub = 2
	}
	var pooled []candidate
	for s := 0; s < nsub; s++ {
		sub := mergedPts[s*subSize : (s+1)*subSize]
		hSub := int(math.Ceil(float64(len(sub)) * float64(h) / float64(n)))
		if hSub < p+1 {
			hSub = p + 1
		}
		cs := newOracleStepper(sub, hSub)
		pooled = append(pooled, oracleRunTrials(cs, perSub, topKeep, rng)...)
	}
	hMerged := int(math.Ceil(float64(len(mergedPts)) * float64(h) / float64(n)))
	if hMerged < p+1 {
		hMerged = p + 1
	}
	csm := newOracleStepper(mergedPts, hMerged)
	var refined []candidate
	for _, c := range pooled {
		mean, cov, logDet := c.mean, c.cov, c.logDet
		var err error
		for step := 0; step < 2; step++ {
			mean, cov, logDet, err = csm.step(mean, cov)
			if err != nil {
				break
			}
		}
		if err != nil {
			continue
		}
		refined = append(refined, candidate{mean: mean, cov: cov, logDet: logDet})
	}
	sort.Slice(refined, func(i, j int) bool { return refined[i].logDet < refined[j].logDet })
	if len(refined) > topKeep {
		refined = refined[:topKeep]
	}
	return refined
}

// oracleFit is the multivariate path of the sort-based Fit.
func oracleFit(pts [][]float64, cfg Config) (oracleRun, error) {
	cfg = cfg.withDefaults()
	n, p := len(pts), len(pts[0])
	h := defaultH(n, p)
	rng := fitRNG(cfg.Seed)
	var run oracleRun
	var cand []candidate
	if n <= smallN {
		cand = oracleRunTrials(newOracleStepper(pts, h), cfg.Trials, topKeep, rng)
	} else {
		cand = oracleNestedTrials(pts, h, cfg, rng)
	}
	run.afterRNG = rng.Uint64()
	for _, c := range cand {
		run.cands = append(run.cands, c.logDet)
	}
	if len(cand) == 0 {
		return run, errors.New("mcd: no non-singular candidate found")
	}
	// Selective iteration on the full data, as Fit runs it: two C-steps
	// each, rank (ties to the earlier candidate), concentrate the leader
	// and fall through only past a candidate that stops factoring.
	cs := newOracleStepper(pts, h)
	var ranked []candidate
	for _, c := range cand {
		mean, cov, logDet := c.mean, c.cov, c.logDet
		var err error
		for step := 0; step < 2 && err == nil; step++ {
			mean, cov, logDet, err = cs.step(mean, cov)
		}
		if err == nil {
			ranked = append(ranked, candidate{mean: mean, cov: cov, logDet: logDet})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].logDet < ranked[j].logDet })
	for _, c := range ranked {
		run.ranked = append(run.ranked, c.logDet)
	}
	for _, c := range ranked {
		mean, cov, _, steps, err := cs.converge(c.mean, c.cov, maxCSteps)
		if err != nil {
			continue
		}
		est, err := oracleFinalize(pts, mean, cov, h)
		if err != nil {
			return run, err
		}
		est.CSteps = 2 + steps
		run.est = est
		return run, nil
	}
	return run, errors.New("mcd: concentration failed on all candidates")
}
