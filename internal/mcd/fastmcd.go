// Package mcd implements the Minimum Covariance Determinant estimator
// via the FastMCD algorithm of Rousseeuw & Van Driessen (paper §4.1,
// Appendix A): it locates the h-subset of points whose covariance
// matrix has minimal determinant and scores points by Mahalanobis
// distance to that robust location/scatter.
//
// The search is selective iteration at three levels — ~300-point subsets,
// their merged set, the full data: every candidate at a level gets two
// C-steps and the level keeps its topKeep best. Only the leader of the
// full-data ranking then concentrates to its fixed point.
//
// A concentration step (C-step) keeps the h points closest to the
// current estimate and re-estimates from them. Only the set matters,
// never the ranking, so the step selects rather than sorts: the distance
// sweep writes a (distance, index) slab and one Floyd–Rivest selection
// permutes it under the total order (distance, then index). Distances that tie
// across the h boundary go to the lower index, a point with a NaN or
// infinite distance ranks last (it is kept only when fewer than h points
// are finite), and h == n keeps everything without a selection pass.
// The chosen rows are then summed in ascending index order, so the new
// mean and covariance — low bits included — are a function of which
// points were chosen and of nothing else.
//
// Each of a step's passes over the data is laid out for what bounds it.
// The distance sweep (stats.Cholesky.MahalanobisSqAll) is a chain of p
// dependent divisions a point, so it keeps many points' chains in
// flight: on amd64 with AVX2 an assembly kernel solves eight at once,
// four to a YMM register in two interleaved groups, and elsewhere a Go
// loop solves four in lockstep. The selection (stats.SelectKeyIdx) is
// Floyd and Rivest's: a pivot chosen within a small sample brackets the
// h-th distance, so one partition of the slab leaves a small window. The
// membership pass turns the chosen set into ascending indexes with no
// branch on membership, which half the points would mispredict. The
// re-estimate (stats.MeanCovInto) sums the chosen rows, centered, into
// the mean and the covariance cells: on amd64 with AVX2 an assembly
// kernel keeps one column's sum or one cell's sum to a YMM lane, and
// elsewhere Go gathers the rows into column-major blocks and sums four
// cells a pass in registers. None of them changes a bit of the answer:
// every point's distance is the same operations in the same order as a
// one-point solve (the kernel multiplies, then subtracts, and never
// fuses the two), the h closest points are one set under a total order
// whatever selects them, and every cell adds the same products in the
// same index order. No multiply is fused with an add on any
// architecture — Go code rounds each such product with float64(a*b),
// and CI disassembles the arm64 build to hold it — so the fits are
// those of the one-point sweep and the row-major covariance exactly; a
// test pins them (amd64) to digests recorded from that code.
//
// A fit spreads its candidates' C-steps over the process's cores: Fit
// runs on GOMAXPROCS goroutines, but never more than topKeep, since the
// full-data ranking has no more candidates than that and a goroutine
// past them would hold a full-data stepper for nothing. Each goroutine,
// the fitting one included, holds one stepper over the full data, 25
// bytes a point, and aims it at each stage's points in turn; the
// consistency correction reuses the fitting goroutine's. Past one
// goroutine, the fitting one starts a crew of helpers (crew.go). It
// draws every trial's start itself, in trial order, since a start is the
// only consumer of the generator. The two C-steps of every trial, and of
// every candidate the merged set and the full data rank, then go to
// whichever goroutine is free, and the results are ranked in candidate
// order, ties to the earlier candidate, as on one goroutine. A C-step
// reads nothing but its candidate and the stage's points, and every
// goroutine steps with its own buffers, so no bit of a fit depends on how
// many goroutines ran it or which took which candidate; a test pins the
// digests on one to seven. The leader's convergence and the consistency
// correction stay on the fitting goroutine. A fit on one worker takes the
// same path with a crew of no helpers: the fitting goroutine steps every
// candidate itself. A panic on a helper is raised again on the fitting
// goroutine once every goroutine has left the stage.
//
// Fits that run at once each take GOMAXPROCS goroutines: a streaming
// session's shards refit on their own schedules (staggered when
// coordinated), and concurrent one-shot queries each fit alone. A fit's
// memory is its steppers, one per goroutine, and buffers that stop
// growing with the data at the trial stage's 1,500 rows: under 30 bytes
// a point per goroutine at 40K rows (TestFitBytesPerPoint, which runs any
// worker count on any box). Each fit that runs at once brings its own.
package mcd

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices" // fitUnivariate only: a C-step selects, it never sorts

	"macrobase/internal/stats"
)

// The search's fixed sizes, the original FastMCD paper's.
const (
	// topKeep is how many candidates survive the two C-steps of each
	// level — subset, merged set, full data.
	topKeep = 10
	// maxCSteps bounds the full-data leader's concentration after its
	// two ranking steps.
	maxCSteps = 100
	// smallN is the size at which the nested-extraction strategy
	// replaces direct trials.
	smallN = 600
)

// Config controls a FastMCD fit. The zero value selects the standard
// defaults from the original paper.
type Config struct {
	// Trials is the number of random initial (p+1)-subsets
	// (default 500).
	Trials int
	// Seed drives subset selection; fits are deterministic given a
	// seed.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 500
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
// robust estimate, on GOMAXPROCS goroutines (at most topKeep).
func Fit(pts [][]float64, cfg Config) (*Estimate, error) {
	return fit(pts, cfg, runtime.GOMAXPROCS(0))
}

// fit is Fit on workers goroutines, at most topKeep: the caller and a
// crew of workers-1 helpers.
func fit(pts [][]float64, cfg Config, workers int) (*Estimate, error) {
	workers = min(workers, topKeep)
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
	h := defaultH(n, p)
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	cs := newCStepper(pts, h)
	if p == 1 {
		return fitUnivariate(cs)
	}

	cs.crew = startCrew(pts, h, workers-1)
	defer cs.crew.stop()
	cand := trialCandidates(cs, cfg, rng)
	if len(cand) == 0 {
		return nil, errors.New("mcd: no non-singular candidate found")
	}

	// Selective iteration carried to the full data: two C-steps for every
	// surviving candidate, then only the leader concentrates.
	lead, steps, err := convergeLeader(cs, refine(cs, cand, len(cand)), maxCSteps)
	if err != nil {
		return nil, err
	}
	est, err := finalize(cs, lead.mean, lead.cov)
	if err != nil {
		return nil, err
	}
	est.CSteps = 2 + steps
	return est, nil
}

// refine gives each candidate two C-steps on cs's dataset and returns the
// best keep in cands' own storage, ascending by log-determinant, ties to
// the earlier candidate; one whose estimate stops factoring drops out.
// It only permutes cands, so every buffer stays in the slab once and a
// caller can start the slab's trials afresh (nestedTrials).
func refine(cs *cStepper, cands []candidate, keep int) []candidate {
	cs.stepAll(cands)
	kept := 0
	for j, c := range cands {
		if c.err != nil {
			continue
		}
		cands[j] = cands[kept] // a dropped candidate, or c itself
		i := kept
		for ; i > 0 && cands[i-1].logDet > c.logDet; i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
		kept++
	}
	return cands[:min(keep, kept)]
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

// defaultH returns the breakdown-optimal subset size
// h = floor((n+p+1)/2).
func defaultH(n, p int) int {
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
	err    error // set when a C-step's estimate stopped factoring
}

// candidateSlab returns k candidates of dimension p whose buffers share
// four allocations.
func candidateSlab(k, p int) []candidate {
	cands := make([]candidate, k)
	covs := make([]stats.Mat, k)
	means := make([]float64, k*p)
	data := make([]float64, k*p*p)
	for i := range cands {
		covs[i] = stats.Mat{Rows: p, Cols: p, Data: data[i*p*p : (i+1)*p*p : (i+1)*p*p]}
		cands[i] = candidate{mean: means[i*p : (i+1)*p : (i+1)*p], cov: &covs[i]}
	}
	return cands
}

// cStepper owns every buffer concentration steps over one dataset need,
// so a step allocates nothing: per point, a 16-byte (distance, index)
// slab and a membership byte, plus room for the subset's indexes. A
// subset holds at most h points past smallN (a step keeps h, a trial
// start draws from a 300-row subset), so there it costs 8 bytes per
// subset point, about 4 a point, with one spare slot the membership pass
// writes into: 21 bytes a point in all. Each goroutine
// of a fit builds one over the full data and aims it at each stage's
// points in turn (aim); a smaller stage uses a prefix of every buffer.
type cStepper struct {
	pts    [][]float64
	h      int
	ps     []stats.KeyIdx // (squared distance, index) slab the sweep writes and the selection permutes
	mask   []bool         // subset membership; all false between uses
	idx    []int          // the current subset: ascending after a step, in draw order after start
	scr    []float64      // the sweep's eight forward solves
	colScr []float64      // MeanCovInto's column-major block for its Go sums; nil where the AVX2 kernel takes p columns
	chol   stats.Cholesky
	ridge  *stats.Mat
	// crew spreads a stage's candidates' steps over this stepper and
	// its helpers (stepAll); nil on a helper's own stepper.
	crew *crew
}

func newCStepper(pts [][]float64, h int) *cStepper {
	p := len(pts[0])
	subset := len(pts)
	if subset > smallN {
		subset = h + 1 // the membership pass writes one slot past the h members
	}
	s := &cStepper{
		pts:   pts,
		h:     h,
		ps:    make([]stats.KeyIdx, len(pts)),
		mask:  make([]bool, len(pts)),
		idx:   make([]int, 0, subset),
		scr:   make([]float64, 8*p),
		ridge: stats.NewMat(p, p),
	}
	if stats.MeanCovUsesScratch(p) {
		s.colScr = make([]float64, p*min(len(pts), stats.MeanCovBlock))
	}
	return s
}

// aim points s, built over at least len(pts) points, at pts and h.
func (s *cStepper) aim(pts [][]float64, h int) {
	s.pts, s.h = pts, h
	s.ps, s.mask = s.ps[:len(pts)], s.mask[:len(pts)]
}

// stepAll gives every candidate two C-steps on s's dataset (stepTwice),
// spread over s and its crew.
func (s *cStepper) stepAll(cands []candidate) {
	s.crew.run(s, cands, (*cStepper).stepTwice)
}

// stepTwice gives c two C-steps in place, keeping the second's
// log-determinant, or the error of the first whose estimate stopped
// factoring.
func (s *cStepper) stepTwice(c *candidate) {
	for step := 0; step < 2; step++ {
		if c.logDet, c.err = s.step(c.mean, c.cov); c.err != nil {
			return
		}
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
	s.chol.MahalanobisSqAll(s.ps, s.pts, mean, s.scr)
	stats.SelectKeyIdx(s.ps, s.h)
	mask := s.mask
	for _, p := range s.ps[:s.h] {
		mask[p.Idx] = true
	}
	// Every index is written and only a member's advances j, so the
	// pass has no branch on membership for half the points to mispredict.
	// A write past the last member lands in idx's spare slot (when h < n;
	// when h == n every write is a member's).
	idx, j := s.idx[:cap(s.idx)], 0
	for i, in := range mask {
		idx[j] = i
		j += b2i(in)
	}
	s.idx = idx[:j]
	clear(mask)
	stats.MeanCovInto(mean, cov, s.pts, s.idx, s.colScr)
	if err := factorWithRidge(&s.chol, s.ridge, cov); err != nil {
		return 0, err
	}
	return s.chol.LogDet(), nil
}

// b2i is 1 for true and 0 for false, which the compiler emits as a
// zero extension of the bool, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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

// runTrials performs one random start per candidate of cands, whose
// buffers it overwrites, with two concentration steps each over the
// cStepper's dataset, and returns the best keep in cands' own storage,
// ascending by log-determinant and then by trial number (FastMCD's
// small-n path, and the per-subset stage of the nested one). Every start
// is drawn first, in trial order, since only start reads rng; the steps
// then go to stepAll, and refine ranks the results in trial order.
func runTrials(cs *cStepper, cands []candidate, keep int, rng *rand.Rand) []candidate {
	for _, c := range cands {
		cs.start(c.mean, c.cov, rng)
	}
	return refine(cs, cands, keep)
}

// trialCandidates is FastMCD's trial stage over cs's dataset: direct
// trials up to smallN points, the nested strategy beyond.
func trialCandidates(cs *cStepper, cfg Config, rng *rand.Rand) []candidate {
	if len(cs.pts) <= smallN {
		return runTrials(cs, candidateSlab(cfg.Trials, len(cs.pts[0])), topKeep, rng)
	}
	return nestedTrials(cs, cfg, rng)
}

// nestedTrials implements FastMCD's large-n strategy: run trials
// within up to five disjoint subsets of ~300 points, pool the
// per-subset winners on the merged set, and return the merged-set
// winners for ranking on the full data. It aims cs at each subset and at
// the merged set in turn, and back at the full data before it returns.
func nestedTrials(cs *cStepper, cfg Config, rng *rand.Rand) []candidate {
	pts, h := cs.pts, cs.h
	n := len(pts)
	p := len(pts[0])
	const subSize = 300
	nsub := min(max(n/subSize, 1), 5)
	// stageH is h scaled to a stage of m points, and at least p+1.
	stageH := func(m int) int {
		return max(int(math.Ceil(float64(m)*float64(h)/float64(n))), p+1)
	}
	// Sample nsub*subSize distinct indices and split them.
	merged := randSubset(make([]int, 0, nsub*subSize), n, nsub*subSize, rng, cs.mask)
	mergedPts := make([][]float64, len(merged))
	for i, ix := range merged {
		mergedPts[i] = pts[ix]
	}
	perSub := max(cfg.Trials/nsub, 2)
	starts := candidateSlab(perSub, p) // every subset's trials, in turn
	// The subsets' survivors, in subset order; the slab past len(pooled)
	// holds the buffers the next survivors are copied into.
	pooled := candidateSlab(nsub*topKeep, p)[:0]
	for s := 0; s < nsub; s++ {
		sub := mergedPts[s*subSize : (s+1)*subSize]
		cs.aim(sub, stageH(len(sub)))
		for _, c := range runTrials(cs, starts, topKeep, rng) {
			pooled = pooled[:len(pooled)+1]
			to := &pooled[len(pooled)-1]
			copy(to.mean, c.mean)
			copy(to.cov.Data, c.cov.Data)
			to.logDet = c.logDet
		}
	}
	// Refine pooled candidates on the merged set.
	cs.aim(mergedPts, stageH(len(mergedPts)))
	ranked := refine(cs, pooled, topKeep)
	cs.aim(pts, h)
	return ranked
}

// finalize applies the consistency correction — rescaling the scatter
// by median(d^2)/chi2_{p,0.5} so squared distances are chi-square
// calibrated under normality — and prepares the scoring factorization.
// cs, aimed at the full data, holds the distances.
func finalize(cs *cStepper, mean []float64, cov *stats.Mat) (*Estimate, error) {
	p := len(mean)
	if err := factorWithRidge(&cs.chol, cs.ridge, cov); err != nil {
		return nil, err
	}
	cs.chol.MahalanobisSqAll(cs.ps, cs.pts, mean, cs.scr)
	factor := cs.medianDist() / stats.ChiSquareQuantile(0.5, float64(p))
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		factor = 1
	}
	corrected := cov.Clone()
	for i := range corrected.Data {
		corrected.Data[i] *= factor
	}
	cchol := new(stats.Cholesky)
	if err := factorWithRidge(cchol, cs.ridge, corrected); err != nil {
		return nil, err
	}
	return &Estimate{
		Mean:    mean,
		Cov:     corrected,
		LogDet:  cchol.LogDet(),
		H:       cs.h,
		chol:    cchol,
		scratch: make([]float64, p),
	}, nil
}

// medianDist returns the median of the distances in s's slab, the value
// stats.Median gives over them: the middle one for odd n, the mean of the
// two middle ones for even n. A NaN distance ranks as +Inf, as in a
// C-step, where stats.Median would leave it to its partition order. It
// permutes the slab.
func (s *cStepper) medianDist() float64 {
	half := len(s.ps) / 2
	stats.SelectKeyIdx(s.ps, half+1)
	hi := s.ps[half].Key // rank half, the smaller pairs to its left
	if len(s.ps)%2 == 1 {
		return hi
	}
	lo := s.ps[0].Key // the largest of the lower half
	for _, e := range s.ps[1:half] {
		if e.Key > lo {
			lo = e.Key
		}
	}
	return (lo + hi) / 2
}

// fitUnivariate computes the exact univariate MCD: the length-h
// window of the sorted sample with minimal variance. The sample is
// sorted in cs's slab.
func fitUnivariate(cs *cStepper) (*Estimate, error) {
	xs, h := cs.ps, cs.h
	for i, p := range cs.pts {
		xs[i] = stats.KeyIdx{Key: p[0], Idx: i}
	}
	slices.SortFunc(xs, func(a, b stats.KeyIdx) int { return cmp.Compare(a.Key, b.Key) })
	// Prefix sums of xs[:i] (lo) and xs[:i+h] (hi), for O(1) window
	// mean/variance.
	var lo, lo2, hi, hi2 float64
	for _, x := range xs[:h] {
		hi += x.Key
		hi2 += float64(x.Key * x.Key)
	}
	bestVar := math.Inf(1)
	bestMean := 0.0
	for i := 0; ; i++ {
		s := hi - lo
		s2 := hi2 - lo2
		m := s / float64(h)
		v := (s2 - float64(float64(h)*m*m)) / float64(h-1)
		if v < bestVar {
			bestVar, bestMean = v, m
		}
		if i+h == len(xs) {
			break
		}
		in, out := xs[i+h].Key, xs[i].Key
		hi += in
		hi2 += float64(in * in)
		lo += out
		lo2 += float64(out * out)
	}
	if bestVar <= 0 {
		bestVar = 1e-12
	}
	cov := stats.NewMat(1, 1)
	cov.Set(0, 0, bestVar)
	return finalize(cs, []float64{bestMean}, cov)
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
