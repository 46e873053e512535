// Package mcd implements the Minimum Covariance Determinant estimator
// via the FastMCD algorithm of Rousseeuw & Van Driessen (paper §4.1,
// Appendix A): it locates the h-subset of points whose covariance
// matrix has minimal determinant and scores points by Mahalanobis
// distance to that robust location/scatter.
//
// The search is selective iteration at three levels — ~300-point subsets,
// their merged set, the full data: every candidate at a level gets two
// C-steps and the level keeps its TopKeep best. Only the leader of the
// full-data ranking then concentrates to its fixed point.
//
// A concentration step (C-step) keeps the h points closest to the
// current estimate and re-estimates from them. Only the set matters,
// never the ranking, so the step selects rather than sorts: one
// introselect pass over a (distance, index) slab under the total order
// (distance, then index). Distances that tie across the h boundary go to
// the lower index, a point with a NaN or infinite distance ranks last
// (it is kept only when fewer than h points are finite), and h == n
// keeps everything without a selection pass. The chosen rows are then
// summed in ascending index order, so the new mean and covariance — low
// bits included — are a function of which points were chosen and of
// nothing else.
//
// Both passes of a step over the data are bound by latency, not
// arithmetic, and each is laid out so that independent chains overlap.
// The distance sweep (stats.Cholesky.MahalanobisSqAll) forward-solves
// four points in lockstep, so four chains of dependent divisions are in
// flight at once. The re-estimate (stats.MeanCovInto) gathers the chosen
// rows, centered, into column-major blocks and sums each covariance cell
// in a register, four cells per pass, instead of loading and storing
// every cell once per row. Neither changes a bit of the answer: every
// point's distance is the same operations in the same order as a
// one-point solve, and every cell adds the same products in the same
// index order. Go does not fuse a multiply and an add into one rounding
// on amd64, so there the fits are those of the one-point sweep and the
// row-major covariance exactly; a test pins them to digests recorded
// from that code.
package mcd

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort" // fitUnivariate only: a C-step selects, it never sorts

	"macrobase/internal/stats"
)

// Config controls a FastMCD fit. The zero value selects the standard
// defaults from the original paper.
type Config struct {
	// SupportFraction is h/n, the fraction of points the estimator
	// must cover; 0 selects the breakdown-optimal default
	// h = floor((n+p+1)/2).
	SupportFraction float64
	// Trials is the number of random initial (p+1)-subsets
	// (default 500).
	Trials int
	// TopKeep is how many candidates survive the two C-steps of each
	// level — subset, merged set, full data (default 10).
	TopKeep int
	// MaxCSteps bounds the full-data leader's concentration after its
	// two ranking steps (default 100).
	MaxCSteps int
	// SmallN is the size at which the nested-extraction strategy
	// replaces direct trials (default 600, as in FastMCD).
	SmallN int
	// Seed drives subset selection; fits are deterministic given a
	// seed.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 500
	}
	if c.TopKeep <= 0 {
		c.TopKeep = 10
	}
	if c.MaxCSteps <= 0 {
		c.MaxCSteps = 100
	}
	if c.SmallN <= 0 {
		c.SmallN = 600
	}
	return c
}

// Estimate is a fitted robust location and scatter. Score returns the
// Mahalanobis distance of a metric vector to the estimate; the MDP
// percentile thresholder cuts on that score.
type Estimate struct {
	Mean []float64
	Cov  *stats.Mat
	// LogDet is log det(Cov) after consistency correction.
	LogDet float64
	// H is the subset size the estimate concentrates on.
	H int
	// CSteps is the number of full-data concentration steps the winner
	// took: the two it was ranked on, then those of its convergence.
	CSteps int

	chol    *stats.Cholesky
	scratch []float64
}

// ErrTooFewPoints is returned when a fit is requested on fewer points
// than dimensions allow.
var ErrTooFewPoints = errors.New("mcd: not enough points to fit")

// Fit runs FastMCD on pts (each a d-vector) and returns the corrected
// robust estimate.
func Fit(pts [][]float64, cfg Config) (*Estimate, error) {
	cfg = cfg.withDefaults()
	n := len(pts)
	if n == 0 {
		return nil, ErrTooFewPoints
	}
	p := len(pts[0])
	if p == 0 {
		return nil, errors.New("mcd: zero-dimensional points")
	}
	if n < 2*(p+1) {
		return nil, fmt.Errorf("%w: n=%d p=%d", ErrTooFewPoints, n, p)
	}
	h := defaultH(n, p, cfg.SupportFraction)
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))

	if p == 1 {
		return fitUnivariate(pts, h)
	}

	cs := newCStepper(pts, h)
	cand := trialCandidates(cs, cfg, rng)
	if len(cand) == 0 {
		return nil, errors.New("mcd: no non-singular candidate found")
	}

	// Selective iteration carried to the full data: two C-steps for every
	// surviving candidate, then only the leader concentrates.
	lead, steps, err := convergeLeader(cs, refine(cs, cand, len(cand)), cfg.MaxCSteps)
	if err != nil {
		return nil, err
	}
	est, err := finalize(pts, lead.mean, lead.cov, h)
	if err != nil {
		return nil, err
	}
	est.CSteps = 2 + steps
	return est, nil
}

// refine gives each candidate two C-steps on cs's dataset and returns the
// best keep in cands' own storage, ascending by log-determinant, ties to
// the earlier candidate; one whose estimate stops factoring drops out.
func refine(cs *cStepper, cands []candidate, keep int) []candidate {
	kept := cands[:0]
next:
	for _, c := range cands {
		for step := 0; step < 2; step++ {
			var err error
			if c.logDet, err = cs.step(c.mean, c.cov); err != nil {
				continue next
			}
		}
		i := len(kept)
		for kept = append(kept, c); i > 0 && kept[i-1].logDet > c.logDet; i-- {
			kept[i] = kept[i-1]
		}
		kept[i] = c
	}
	return kept[:min(keep, len(kept))]
}

// convergeLeader concentrates ranked[0] to its fixed point and returns it
// with the steps that took. It reaches the next in rank only when the one
// before stops factoring, so it fails only when every candidate does.
func convergeLeader(cs *cStepper, ranked []candidate, maxSteps int) (candidate, int, error) {
	for _, c := range ranked {
		if logDet, steps, err := cs.converge(c.mean, c.cov, maxSteps); err == nil {
			c.logDet = logDet
			return c, steps, nil
		}
	}
	return candidate{}, 0, errors.New("mcd: concentration failed on all candidates")
}

// defaultH returns the subset size for the given support fraction.
func defaultH(n, p int, frac float64) int {
	if frac > 0 {
		h := int(frac * float64(n))
		if h < (n+p+1)/2 {
			h = (n + p + 1) / 2
		}
		if h > n {
			h = n
		}
		return h
	}
	return (n + p + 1) / 2
}

// Score returns the Mahalanobis distance from x to the estimate
// (paper §4.1). It is safe for concurrent use only when each goroutine
// uses its own Estimate clone; the hot path reuses a scratch buffer.
func (e *Estimate) Score(x []float64) float64 {
	return math.Sqrt(e.chol.MahalanobisSq(x, e.Mean, e.scratch))
}

// MahalanobisSq returns the squared distance, the quantity chi-square
// distributed under normality.
func (e *Estimate) MahalanobisSq(x []float64) float64 {
	return e.chol.MahalanobisSq(x, e.Mean, e.scratch)
}

// Contributions decomposes x's squared Mahalanobis distance into
// per-dimension contributions c_i = (x-mu)_i * [Cov^{-1}(x-mu)]_i,
// the additive partition MacroBase uses (after Garthwaite & Koch) to
// report which metrics drive an anomaly (paper Appendix A).
func (e *Estimate) Contributions(x []float64) []float64 {
	d := len(e.Mean)
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = x[i] - e.Mean[i]
	}
	w := e.chol.SolveVec(diff)
	out := make([]float64, d)
	for i := range out {
		out[i] = diff[i] * w[i]
	}
	return out
}

// Dims returns the dimensionality of the estimate.
func (e *Estimate) Dims() int { return len(e.Mean) }

// Clone returns an Estimate with private scratch space so another
// goroutine can score concurrently.
func (e *Estimate) Clone() *Estimate {
	c := *e
	c.scratch = make([]float64, len(e.Mean))
	return &c
}

// candidate is one location/scatter estimate and the buffers that hold
// it; C-steps rewrite those buffers in place.
type candidate struct {
	mean   []float64
	cov    *stats.Mat
	logDet float64
}

// topCandidates keeps the keep lowest-logDet candidates offered to it,
// ascending; of two with equal logDet the one offered first ranks first.
// It allocates keep candidates, however many are offered.
type topCandidates struct {
	keep int
	list []candidate
}

// offer copies (mean, cov) into the list if it ranks among the best
// keep seen so far.
func (t *topCandidates) offer(mean []float64, cov *stats.Mat, logDet float64) {
	var c candidate
	switch {
	case len(t.list) < t.keep:
		c = candidate{mean: make([]float64, len(mean)), cov: stats.NewMat(cov.Rows, cov.Cols)}
		t.list = append(t.list, c)
	case logDet < t.list[t.keep-1].logDet:
		c = t.list[t.keep-1] // evicted: its buffers carry the newcomer
	default:
		return
	}
	copy(c.mean, mean)
	copy(c.cov.Data, cov.Data)
	c.logDet = logDet
	i := len(t.list) - 1
	for ; i > 0 && t.list[i-1].logDet > logDet; i-- {
		t.list[i] = t.list[i-1]
	}
	t.list[i] = c
}

// cStepper owns every buffer concentration steps over one dataset need,
// so a step allocates nothing.
type cStepper struct {
	pts    [][]float64
	h      int
	d2     []float64      // every point's squared distance, as the sweep writes them
	ps     []stats.KeyIdx // (squared distance, index) slab the selection permutes
	mask   []bool         // subset membership; all false between uses
	idx    []int          // the current subset: ascending after a step, in draw order after start
	scr    []float64      // the sweep's four forward solves
	colScr []float64      // MeanCovInto's column-major block of centered rows
	chol   stats.Cholesky
	ridge  *stats.Mat
}

func newCStepper(pts [][]float64, h int) *cStepper {
	p := len(pts[0])
	return &cStepper{
		pts:    pts,
		h:      h,
		d2:     make([]float64, len(pts)),
		ps:     make([]stats.KeyIdx, len(pts)),
		mask:   make([]bool, len(pts)),
		idx:    make([]int, 0, len(pts)),
		scr:    make([]float64, 4*p),
		colScr: make([]float64, p*min(len(pts), stats.MeanCovBlock)),
		ridge:  stats.NewMat(p, p),
	}
}

// step performs one C-step in place: it finds the h points closest to
// (mean, cov) in Mahalanobis distance, overwrites mean and cov with
// their estimate, and returns its log-determinant. See the package
// comment for which points those are when distances tie or are not
// finite, and for why the rows are summed in index order.
func (s *cStepper) step(mean []float64, cov *stats.Mat) (logDet float64, err error) {
	if err := factorWithRidge(&s.chol, s.ridge, cov); err != nil {
		return 0, err
	}
	s.chol.MahalanobisSqAll(s.d2, s.pts, mean, s.scr)
	for i, d2 := range s.d2 {
		s.ps[i] = stats.KeyIdx{Key: d2, Idx: i}
	}
	stats.SelectKeyIdx(s.ps, s.h)
	for _, p := range s.ps[:s.h] {
		s.mask[p.Idx] = true
	}
	s.idx = s.idx[:0]
	for i, in := range s.mask {
		if in {
			s.idx = append(s.idx, i)
			s.mask[i] = false
		}
	}
	stats.MeanCovInto(mean, cov, s.pts, s.idx, s.colScr)
	if err := factorWithRidge(&s.chol, s.ridge, cov); err != nil {
		return 0, err
	}
	return s.chol.LogDet(), nil
}

// converge iterates C-steps on (mean, cov) in place until the
// determinant stops decreasing.
func (s *cStepper) converge(mean []float64, cov *stats.Mat, maxSteps int) (logDet float64, steps int, err error) {
	prev := math.Inf(1)
	for steps = 0; steps < maxSteps; steps++ {
		if logDet, err = s.step(mean, cov); err != nil {
			return 0, steps, err
		}
		if prev-logDet < 1e-12*(1+math.Abs(prev)) {
			return logDet, steps + 1, nil
		}
		prev = logDet
	}
	return logDet, steps, nil
}

// start draws a random (p+1)-subset into s.idx and leaves its estimate
// in (mean, cov), expanding a singular subset with extra random points
// until the covariance is invertible (FastMCD's remedy). It is the only
// part of a trial that consumes rng.
func (s *cStepper) start(mean []float64, cov *stats.Mat, rng *rand.Rand) {
	n := len(s.pts)
	s.idx = randSubset(s.idx[:0], n, len(mean)+1, rng, s.mask)
	stats.MeanCovInto(mean, cov, s.pts, s.idx, s.colScr)
	for len(s.idx) < n && s.chol.Factor(cov) != nil {
		s.idx = addRandomPoint(s.idx, n, rng, s.mask)
		stats.MeanCovInto(mean, cov, s.pts, s.idx, s.colScr)
	}
}

// factorWithRidge factors cov into chol, regularizing a singular matrix
// with a small diagonal ridge proportional to the average variance;
// ridge is scratch of cov's shape.
func factorWithRidge(chol *stats.Cholesky, ridge, cov *stats.Mat) error {
	if chol.Factor(cov) == nil {
		return nil
	}
	tr := 0.0
	for i := 0; i < cov.Rows; i++ {
		tr += cov.At(i, i)
	}
	lambda := 1e-8 * (tr/float64(cov.Rows) + 1)
	for tries := 0; tries < 12; tries++ {
		copy(ridge.Data, cov.Data)
		if chol.Factor(stats.Ridge(ridge, lambda)) == nil {
			return nil
		}
		lambda *= 10
	}
	return stats.ErrNotSPD
}

// cholWithRidge is factorWithRidge into fresh storage.
func cholWithRidge(cov *stats.Mat) (*stats.Cholesky, error) {
	chol := new(stats.Cholesky)
	if err := factorWithRidge(chol, stats.NewMat(cov.Rows, cov.Cols), cov); err != nil {
		return nil, err
	}
	return chol, nil
}

// runTrials performs trials random starts with two concentration steps
// each over the cStepper's dataset and returns the best topKeep,
// ascending by log-determinant and then by trial number (FastMCD's
// small-n path, and the per-subset stage of the nested one).
func runTrials(cs *cStepper, trials, topKeep int, rng *rand.Rand) []candidate {
	p := len(cs.pts[0])
	top := topCandidates{keep: topKeep}
	mean, cov := make([]float64, p), stats.NewMat(p, p)
trial:
	for t := 0; t < trials; t++ {
		cs.start(mean, cov, rng)
		var logDet float64
		for step := 0; step < 2; step++ {
			var err error
			if logDet, err = cs.step(mean, cov); err != nil {
				continue trial
			}
		}
		top.offer(mean, cov, logDet)
	}
	return top.list
}

// trialCandidates is FastMCD's trial stage over cs's dataset: direct
// trials up to SmallN points, the nested strategy beyond.
func trialCandidates(cs *cStepper, cfg Config, rng *rand.Rand) []candidate {
	if len(cs.pts) <= cfg.SmallN {
		return runTrials(cs, cfg.Trials, cfg.TopKeep, rng)
	}
	return nestedTrials(cs, cfg, rng)
}

// nestedTrials implements FastMCD's large-n strategy: run trials
// within up to five disjoint subsets of ~300 points, pool the
// per-subset winners on the merged set, and return the merged-set
// winners for ranking on full's data.
func nestedTrials(full *cStepper, cfg Config, rng *rand.Rand) []candidate {
	pts, h := full.pts, full.h
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
	// Sample nsub*subSize distinct indices and split them.
	merged := randSubset(make([]int, 0, nsub*subSize), n, nsub*subSize, rng, full.mask)
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
		pooled = append(pooled, runTrials(newCStepper(sub, hSub), perSub, cfg.TopKeep, rng)...)
	}
	// Refine pooled candidates on the merged set.
	hMerged := int(math.Ceil(float64(len(mergedPts)) * float64(h) / float64(n)))
	if hMerged < p+1 {
		hMerged = p + 1
	}
	csm := newCStepper(mergedPts, hMerged)
	return refine(csm, pooled, cfg.TopKeep)
}

// finalize applies the consistency correction — rescaling the scatter
// by median(d^2)/chi2_{p,0.5} so squared distances are chi-square
// calibrated under normality — and prepares the scoring factorization.
func finalize(pts [][]float64, mean []float64, cov *stats.Mat, h int) (*Estimate, error) {
	p := len(mean)
	chol, err := cholWithRidge(cov)
	if err != nil {
		return nil, err
	}
	d2 := make([]float64, len(pts))
	chol.MahalanobisSqAll(d2, pts, mean, nil)
	med := stats.Median(d2)
	target := stats.ChiSquareQuantile(0.5, float64(p))
	factor := med / target
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
	return &Estimate{
		Mean:    mean,
		Cov:     corrected,
		LogDet:  cchol.LogDet(),
		H:       h,
		chol:    cchol,
		scratch: make([]float64, p),
	}, nil
}

// fitUnivariate computes the exact univariate MCD: the length-h
// window of the sorted sample with minimal variance.
func fitUnivariate(pts [][]float64, h int) (*Estimate, error) {
	n := len(pts)
	xs := make([]float64, n)
	for i, p := range pts {
		xs[i] = p[0]
	}
	sort.Float64s(xs)
	// Prefix sums for O(1) window mean/variance.
	sum := make([]float64, n+1)
	sum2 := make([]float64, n+1)
	for i, x := range xs {
		sum[i+1] = sum[i] + x
		sum2[i+1] = sum2[i] + x*x
	}
	bestVar := math.Inf(1)
	bestMean := 0.0
	for i := 0; i+h <= n; i++ {
		s := sum[i+h] - sum[i]
		s2 := sum2[i+h] - sum2[i]
		m := s / float64(h)
		v := (s2 - float64(h)*m*m) / float64(h-1)
		if v < bestVar {
			bestVar, bestMean = v, m
		}
	}
	if bestVar <= 0 {
		bestVar = 1e-12
	}
	cov := stats.NewMat(1, 1)
	cov.Set(0, 0, bestVar)
	return finalize(pts, []float64{bestMean}, cov, h)
}

// randSubset appends k distinct indices from [0, n) to dst, in the
// order drawn. seen is scratch of length >= n, all false on entry and
// on return.
func randSubset(dst []int, n, k int, rng *rand.Rand, seen []bool) []int {
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	from := len(dst)
	for len(dst) < from+k {
		i := rng.IntN(n)
		if !seen[i] {
			seen[i] = true
			dst = append(dst, i)
		}
	}
	for _, i := range dst[from:] {
		seen[i] = false
	}
	return dst
}

// addRandomPoint appends one index not already in subset; seen is as in
// randSubset.
func addRandomPoint(subset []int, n int, rng *rand.Rand, seen []bool) []int {
	for _, i := range subset {
		seen[i] = true
	}
	var pick int
	for pick = rng.IntN(n); seen[pick]; pick = rng.IntN(n) {
	}
	for _, i := range subset {
		seen[i] = false
	}
	return append(subset, pick)
}
