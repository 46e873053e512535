package stats

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// randomSPD builds B*Bᵀ + d*I, guaranteed symmetric positive definite.
func randomSPD(d int, rng *rand.Rand) *Mat {
	b := NewMat(d, d)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			s := 0.0
			for k := 0; k < d; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			a.Set(i, j, s)
		}
	}
	for i := 0; i < d; i++ {
		a.Set(i, i, a.At(i, i)+float64(d))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, d := range []int{1, 2, 3, 5, 8} {
		a := randomSPD(d, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				s := 0.0
				for k := 0; k < d; k++ {
					s += ch.L.At(i, k) * ch.L.At(j, k)
				}
				if math.Abs(s-a.At(i, j)) > 1e-9 {
					t.Fatalf("d=%d: LLt[%d][%d] = %v, want %v", d, i, j, s, a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewMat(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
	rect := NewMat(2, 3)
	if _, err := NewCholesky(rect); err == nil {
		t.Error("non-square should fail")
	}
}

func TestCholeskySolveAndInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	d := 4
	a := randomSPD(d, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3, 0.5}
	x := ch.SolveVec(b)
	for i := 0; i < d; i++ {
		s := 0.0
		for j := 0; j < d; j++ {
			s += a.At(i, j) * x[j]
		}
		if math.Abs(s-b[i]) > 1e-9 {
			t.Fatalf("Ax[%d] = %v, want %v", i, s, b[i])
		}
	}
	inv := ch.Inverse()
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			s := 0.0
			for k := 0; k < d; k++ {
				s += a.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("A*Ainv[%d][%d] = %v", i, j, s)
			}
		}
	}
}

func TestLogDetDiagonal(t *testing.T) {
	a := NewMat(3, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	a.Set(2, 2, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.LogDet(), math.Log(24); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

func TestMahalanobisMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	d := 3
	a := randomSPD(d, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	mu := []float64{1, 2, 3}
	x := []float64{2.5, -1, 4}
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = x[i] - mu[i]
	}
	want := 0.0
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			want += diff[i] * inv.At(i, j) * diff[j]
		}
	}
	got := ch.MahalanobisSq(x, mu, nil)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MahalanobisSq = %v, want %v", got, want)
	}
	scratch := make([]float64, d)
	if got2 := ch.MahalanobisSq(x, mu, scratch); math.Abs(got2-got) > 1e-12 {
		t.Errorf("scratch path differs: %v vs %v", got2, got)
	}
}

func TestMeanCovInto(t *testing.T) {
	pts := [][]float64{{1, 2}, {3, 4}, {5, 0}, {7, 6}}
	mean, cov := make([]float64, 2), NewMat(2, 2)
	MeanCovInto(mean, cov, pts, []int{0, 1, 2, 3}, nil)
	if math.Abs(mean[0]-4) > 1e-12 || math.Abs(mean[1]-3) > 1e-12 {
		t.Errorf("mean = %v", mean)
	}
	// Var(x) = ((9+1+1+9))/3.
	if got := cov.At(0, 0); math.Abs(got-20.0/3) > 1e-12 {
		t.Errorf("cov[0][0] = %v", got)
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Error("covariance not symmetric")
	}
	// A subset, into the same (now dirty) buffers.
	MeanCovInto(mean, cov, pts, []int{0, 2}, nil)
	if math.Abs(mean[0]-3) > 1e-12 || math.Abs(mean[1]-1) > 1e-12 {
		t.Errorf("subset mean = %v", mean)
	}
	if want := [4]float64{8, -4, -4, 2}; [4]float64(cov.Data) != want {
		t.Errorf("subset cov = %v, want %v", cov.Data, want)
	}
}

// TestMeanCovIntoWide covers dimensions past the stack scratch.
func TestMeanCovIntoWide(t *testing.T) {
	const d = 40
	pts := make([][]float64, 3)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = float64(i * (j + 1))
		}
	}
	mean, cov := make([]float64, d), NewMat(d, d)
	MeanCovInto(mean, cov, pts, []int{2, 0, 1}, nil)
	// Column j holds 0, j+1, 2(j+1): mean j+1, cov[j][k] = (j+1)(k+1).
	for j := 0; j < d; j++ {
		if mean[j] != float64(j+1) || cov.At(j, d-1) != float64((j+1)*d) {
			t.Fatalf("column %d: mean %v, cov[j][d-1] %v", j, mean[j], cov.At(j, d-1))
		}
	}
}

// TestCholeskyFactorReuse: refactoring into an existing Cholesky gives
// the factor a fresh one would, without allocating.
func TestCholeskyFactorReuse(t *testing.T) {
	a := NewMat(2, 2)
	copy(a.Data, []float64{4, 2, 2, 3})
	b := NewMat(2, 2)
	copy(b.Data, []float64{9, 3, 3, 5})
	var c Cholesky
	if err := c.Factor(a); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := c.Factor(b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Factor into existing storage allocated %v times", allocs)
	}
	fresh, err := NewCholesky(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fresh.L.Data {
		if c.L.Data[i] != v {
			t.Fatalf("reused factor %v, fresh %v", c.L.Data, fresh.L.Data)
		}
	}
	bad := NewMat(2, 2)
	copy(bad.Data, []float64{1, 2, 2, 1})
	if err := c.Factor(bad); err != ErrNotSPD {
		t.Errorf("indefinite matrix: %v", err)
	}
}

func TestRidge(t *testing.T) {
	a := NewMat(2, 2)
	Ridge(a, 0.5)
	if a.At(0, 0) != 0.5 || a.At(1, 1) != 0.5 || a.At(0, 1) != 0 {
		t.Errorf("ridge result %v", a.Data)
	}
}

// meanCovRowMajor is MeanCovInto as it was before the column-major
// blocks: every row's centered products are added straight into the
// covariance cells, one load-add-store per cell per row. It is the oracle
// the register-summed version must match bit for bit.
func meanCovRowMajor(mean []float64, cov *Mat, pts [][]float64, idx []int) {
	d := len(mean)
	n := len(idx)
	clear(mean)
	for _, ix := range idx {
		r := pts[ix]
		for j := 0; j < d; j++ {
			mean[j] += r[j]
		}
	}
	for j := 0; j < d; j++ {
		mean[j] /= float64(n)
	}
	clear(cov.Data)
	diff := make([]float64, d)
	for _, ix := range idx {
		r := pts[ix][:d]
		for j := range diff {
			diff[j] = r[j] - mean[j]
		}
		for j := 0; j < d; j++ {
			cj := cov.Data[j*d : j*d+d]
			dj := diff[j]
			for k := j; k < d; k++ {
				cj[k] += dj * diff[k]
			}
		}
	}
	den := float64(n - 1)
	if n < 2 {
		den = 1
	}
	for j := 0; j < d; j++ {
		for k := j; k < d; k++ {
			v := cov.At(j, k) / den
			cov.Set(j, k, v)
			cov.Set(k, j, v)
		}
	}
}

// requireUnfused skips a bit-for-bit comparison of two loops where Go
// may fuse a multiply and an add into one rounding, and may do it in one
// loop and not the other. amd64 never fuses.
func requireUnfused(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit comparison needs unfused multiply-adds, which only amd64 guarantees")
	}
}

// sweepDims are the dimensions the sweep and the covariance are checked
// at: every p FastMCD meets in practice, and one past the 32 the old
// covariance kept on the stack.
var sweepDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33}

// specialRows overwrites some rows of pts with the values that take the
// arithmetic off its normal path: NaN, ±Inf, zeros, subnormals, and a
// row equal to mu.
func specialRows(pts [][]float64, mu []float64, rng *rand.Rand) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3e-310}
	for r, x := range pts {
		switch r % 5 {
		case 1: // one special entry
			x[rng.IntN(len(x))] = specials[rng.IntN(len(specials))]
		case 3: // every entry special
			for i := range x {
				x[i] = specials[rng.IntN(len(specials))]
			}
		case 4:
			if r%10 == 4 {
				copy(x, mu)
			}
		}
	}
}

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as the same. Where two NaNs with different payloads meet in an
// add, IEEE 754 leaves the payload of the result open: x86 keeps the
// destination operand's, and the compiler picks which operand of a
// commutative add is the destination per loop. A point's distance meets
// two such NaNs when its row mixes a NaN with infinities that cancel.
// Nothing observes the payload: the C-step's selection ranks every NaN
// distance last, and FastMCD's consistency factor falls back to 1 on
// any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func TestMahalanobisSqAllMatchesOnePointBits(t *testing.T) {
	requireUnfused(t)
	rng := rand.New(rand.NewPCG(31, 37))
	for _, p := range sweepDims {
		ch, err := NewCholesky(randomSPD(p, rng))
		if err != nil {
			t.Fatal(err)
		}
		mu := make([]float64, p)
		for i := range mu {
			mu[i] = rng.NormFloat64()
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 41, 42, 43, 44} {
			for _, special := range []bool{false, true} {
				pts := make([][]float64, n)
				for r := range pts {
					pts[r] = make([]float64, p)
					for i := range pts[r] {
						pts[r][i] = rng.NormFloat64() * 3
					}
				}
				if special {
					specialRows(pts, mu, rng)
				}
				dst := make([]KeyIdx, n)
				scratch := make([]float64, 8*p)
				ch.MahalanobisSqAll(dst, pts, mu, scratch)
				if n > 0 {
					ch.MahalanobisSqAll(dst[:n-1], pts[:n-1], mu, nil) // a different tail, allocated scratch
				}
				for r, x := range pts {
					want := ch.MahalanobisSq(x, mu, nil)
					if got := dst[r].Key; !sameBits(got, want) || dst[r].Idx != r {
						t.Fatalf("p=%d n=%d special=%v row %d %v: sweep (%v (%#x), index %d), one point %v (%#x)",
							p, n, special, r, x, got, math.Float64bits(got), dst[r].Idx, want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestMahalanobisSqAllAllocations(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	ch, err := NewCholesky(randomSPD(7, rng))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 103)
	for r := range pts {
		pts[r] = make([]float64, 7)
	}
	dst, mu, scratch := make([]KeyIdx, len(pts)), make([]float64, 7), make([]float64, 8*7)
	if allocs := testing.AllocsPerRun(10, func() { ch.MahalanobisSqAll(dst, pts, mu, scratch) }); allocs != 0 {
		t.Errorf("sweep with 8p scratch allocated %v times", allocs)
	}
}

func TestMeanCovIntoMatchesRowMajorBits(t *testing.T) {
	requireUnfused(t)
	rng := rand.New(rand.NewPCG(47, 53))
	for _, d := range sweepDims {
		pts := make([][]float64, 700)
		for r := range pts {
			pts[r] = make([]float64, d)
			for i := range pts[r] {
				pts[r][i] = rng.NormFloat64()*float64(i+1) + float64(i)
			}
		}
		for _, n := range []int{1, 2, 3, d + 1, 255, 256, 257, 600} {
			// idx unsorted, as a C-step's start draws it.
			idx := rng.Perm(len(pts))[:n]
			wantMean, wantCov := make([]float64, d), NewMat(d, d)
			meanCovRowMajor(wantMean, wantCov, pts, idx)
			// nil takes the default block; d and 3d make blocks of one and
			// three rows, so a cell carries its sum across many blocks.
			for _, scratch := range [][]float64{nil, make([]float64, d), make([]float64, 3*d+1), make([]float64, d*MeanCovBlock)} {
				mean, cov := make([]float64, d), NewMat(d, d)
				for i := range cov.Data {
					cov.Data[i] = math.NaN() // dirty, as a reused buffer is
				}
				MeanCovInto(mean, cov, pts, idx, scratch)
				for j := range mean {
					if math.Float64bits(mean[j]) != math.Float64bits(wantMean[j]) {
						t.Fatalf("d=%d n=%d scratch %d: mean[%d] %v, row-major %v", d, n, len(scratch), j, mean[j], wantMean[j])
					}
				}
				for c := range cov.Data {
					if math.Float64bits(cov.Data[c]) != math.Float64bits(wantCov.Data[c]) {
						t.Fatalf("d=%d n=%d scratch %d: cov[%d][%d] %v, row-major %v", d, n, len(scratch), c/d, c%d, cov.Data[c], wantCov.Data[c])
					}
				}
			}
		}
	}
}

func TestMeanCovIntoAllocations(t *testing.T) {
	const d = 7
	pts := make([][]float64, 1000)
	for r := range pts {
		pts[r] = make([]float64, d)
		for i := range pts[r] {
			pts[r][i] = float64(r * i % 13)
		}
	}
	idx := make([]int, 900)
	for i := range idx {
		idx[i] = (i * 7) % len(pts)
	}
	mean, cov, scratch := make([]float64, d), NewMat(d, d), make([]float64, d*MeanCovBlock)
	if allocs := testing.AllocsPerRun(10, func() { MeanCovInto(mean, cov, pts, idx, scratch) }); allocs != 0 {
		t.Errorf("MeanCovInto with d*MeanCovBlock scratch allocated %v times", allocs)
	}
}

// benchRows is n correlated 7-dimensional rows and a Cholesky factor of
// their scatter: the shape of a firehose_xc reservoir refit.
func benchRows(n int) ([][]float64, *Cholesky, []float64) {
	const p = 7
	rng := rand.New(rand.NewPCG(59, 61))
	pts := make([][]float64, n)
	for r := range pts {
		pts[r] = make([]float64, p)
		for i := range pts[r] {
			pts[r][i] = rng.NormFloat64() * float64(i+1)
		}
	}
	ch, err := NewCholesky(randomSPD(p, rng))
	if err != nil {
		panic(err)
	}
	return pts, ch, make([]float64, p)
}

// BenchmarkMahalanobisSweep times one C-step's distance pass over 10K
// points, per point: a MahalanobisSq loop, the Go four-point sweep, and,
// where the CPU has it, the AVX2 kernel.
func BenchmarkMahalanobisSweep(b *testing.B) {
	pts, ch, mu := benchRows(10_000)
	dst, scratch := make([]KeyIdx, len(pts)), make([]float64, 8*len(mu))
	b.Run("one-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, x := range pts {
				dst[r] = KeyIdx{ch.MahalanobisSq(x, mu, scratch), r}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
	})
	b.Run("four-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.mahalanobisSqFrom(dst, pts, mu, scratch, 0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
	})
	if haveAVX2 {
		b.Run("avx2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch.MahalanobisSqAll(dst, pts, mu, scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
		})
	}
}

// BenchmarkMeanCov times one C-step's re-estimate from 5K of 10K points
// in C-step order, per point: column-major blocks against the row-major
// oracle.
func BenchmarkMeanCov(b *testing.B) {
	pts, _, mean := benchRows(10_000)
	idx := make([]int, 0, len(pts)/2)
	for i := 0; i < len(pts); i += 2 {
		idx = append(idx, i)
	}
	cov, scratch := NewMat(len(mean), len(mean)), make([]float64, len(mean)*MeanCovBlock)
	b.Run("row-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			meanCovRowMajor(mean, cov, pts, idx)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/point")
	})
	b.Run("column-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MeanCovInto(mean, cov, pts, idx, scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/point")
	})
}

// NewCholesky factors a into a fresh Cholesky.
func NewCholesky(a *Mat) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// SolveVec solves A x = b in place of the returned slice.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.L.Rows
	x := make([]float64, n)
	copy(x, b)
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		li := c.L.Row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= li[k] * x[k]
		}
		x[i] = s / li[i]
	}
	// Backward: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
	return x
}

// Inverse returns A⁻¹ by solving against the identity, the explicit
// oracle for the factor-based kernels.
func (c *Cholesky) Inverse() *Mat {
	n := c.L.Rows
	inv := NewMat(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := c.SolveVec(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}
