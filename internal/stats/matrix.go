package stats

import (
	"errors"
	"math"
)

// Mat is a small dense row-major matrix. MacroBase's multivariate path
// (FastMCD, Mahalanobis scoring) only needs symmetric positive
// definite operations in modest dimension, so the implementation
// favors clarity and cache-friendly row access over generality.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed rows x cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not positive definite.
var ErrNotSPD = errors.New("stats: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L Lᵀ.
type Cholesky struct {
	L *Mat
}

// Factor factors the symmetric positive definite matrix a into c's own
// storage, which is allocated only when the dimension changes: a loop
// that refactors same-sized matrices allocates once. Only the lower
// triangle of a is read. Returns ErrNotSPD when a pivot is not strictly
// positive; after an error c holds no usable factor.
func (c *Cholesky) Factor(a *Mat) error {
	if a.Rows != a.Cols {
		return errors.New("stats: Cholesky of non-square matrix")
	}
	n := a.Rows
	if c.L == nil || c.L.Rows != n {
		c.L = NewMat(n, n)
	}
	l := c.L
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				sum -= float64(li[k] * lj[k])
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotSPD
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return nil
}

// LogDet returns log(det A) = 2 * sum log L[i][i].
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// MahalanobisSq returns (x-mu)ᵀ A⁻¹ (x-mu) using the factorization:
// it forward-solves L z = (x - mu) and returns ‖z‖². scratch, when
// len(scratch) >= len(x), avoids allocation.
func (c *Cholesky) MahalanobisSq(x, mu, scratch []float64) float64 {
	n := c.L.Rows
	var z []float64
	if cap(scratch) >= n {
		z = scratch[:n]
	} else {
		z = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		li := c.L.Row(i)
		s := x[i] - mu[i]
		for k := 0; k < i; k++ {
			s -= float64(li[k] * z[k])
		}
		z[i] = s / li[i]
	}
	d := 0.0
	for _, v := range z {
		d += float64(v * v)
	}
	return d
}

// MahalanobisSqAll sets dst[r] to (MahalanobisSq(pts[r], mu), r) for
// every row of pts: the (distance, index) slab a selection permutes
// (SelectKeyIdx). A point's forward solve is a chain of dependent
// divisions, so the sweep solves four points at once and their chains
// overlap. On amd64 with AVX2 (checked once, at init) an assembly kernel
// does it, one point to a lane of a YMM register; everywhere else a Go
// loop does, four points in lockstep. Each point still executes exactly
// MahalanobisSq's operations in MahalanobisSq's order — a multiply and a
// subtract a term, then the division, and the norm summed from zero in
// index order — and a tail of fewer than four points goes through
// MahalanobisSq itself, so every dst[r].Key is bit for bit the one-point
// answer on either path. The multiply is never fused with the subtract:
// the kernel issues them apart, and the Go loops round each product
// (float64(a*b)), which CI's arm64 disassembly step ("No fused
// multiply-adds", ci.yml) holds for every line of this package and of
// mcd. scratch, when cap(scratch) >= 8*len(mu), avoids allocation.
func (c *Cholesky) MahalanobisSqAll(dst []KeyIdx, pts [][]float64, mu, scratch []float64) {
	n := c.L.Rows
	if cap(scratch) < 8*n {
		scratch = make([]float64, 8*n)
	}
	scratch, mu, dst = scratch[:8*n], mu[:n], dst[:len(pts)]
	r := sweepKernel(dst, pts, mu, c.L.Data[:n*n], scratch)
	c.mahalanobisSqFrom(dst, pts, mu, scratch, r)
}

// mahalanobisSqFrom is MahalanobisSqAll's Go sweep from row r on, with
// dst, mu and scratch already sized: the only sweep off AVX2 and the
// reference the AVX2 kernel is tested against.
func (c *Cholesky) mahalanobisSqFrom(dst []KeyIdx, pts [][]float64, mu, scratch []float64, r int) {
	n := c.L.Rows
	z0, z1, z2, z3 := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:4*n]
	for ; r+4 <= len(pts); r += 4 {
		x0, x1, x2, x3 := pts[r][:n], pts[r+1][:n], pts[r+2][:n], pts[r+3][:n]
		for i := range z0 {
			li := c.L.Data[i*n : i*n+i+1]
			s0, s1, s2, s3 := x0[i]-mu[i], x1[i]-mu[i], x2[i]-mu[i], x3[i]-mu[i]
			for k, l := range li[:i] {
				s0 -= float64(l * z0[k])
				s1 -= float64(l * z1[k])
				s2 -= float64(l * z2[k])
				s3 -= float64(l * z3[k])
			}
			z0[i], z1[i], z2[i], z3[i] = s0/li[i], s1/li[i], s2/li[i], s3/li[i]
		}
		var d0, d1, d2, d3 float64
		for i, v := range z0 {
			d0 += float64(v * v)
			d1 += float64(z1[i] * z1[i])
			d2 += float64(z2[i] * z2[i])
			d3 += float64(z3[i] * z3[i])
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = KeyIdx{d0, r}, KeyIdx{d1, r + 1}, KeyIdx{d2, r + 2}, KeyIdx{d3, r + 3}
	}
	for ; r < len(pts); r++ {
		dst[r] = KeyIdx{c.MahalanobisSq(pts[r], mu, scratch), r}
	}
}

// MeanCovBlock is how many centered rows MeanCovInto's scratch is sized
// for: a block of d columns that stays in L1 at the dimensions FastMCD
// fits.
const MeanCovBlock = 256

// MeanCovInto computes the sample mean and covariance (denominator
// n-1) of the rows pts[idx[0]], pts[idx[1]], ... into the caller's mean
// (length d) and cov (d x d), overwriting both. Rows are summed in the
// order idx lists them, so the result's low-order bits are a function
// of that order and of nothing else: each mean[j] is +0 plus the
// rows' values in idx order, divided by n, and each covariance cell
// (j, k) is +0 plus the products c_j*c_k of the centered rows
// c = row - mean in idx order, each product rounded before it is added,
// divided by n-1.
//
// On amd64 with AVX2 and rows of at most 8 columns an assembly kernel
// (meanCovKernel) computes those sums, one YMM lane per column for the
// mean and one per cell for the covariance, with no scratch. Elsewhere
// meanCovSums does, in Go: the same sums, and the kernel's test oracle.
// A caller that refits in a loop owns d*MeanCovBlock floats of scratch
// for the Go sums where MeanCovUsesScratch(d) (nil, or fewer than d
// floats, allocates that much).
func MeanCovInto(mean []float64, cov *Mat, pts [][]float64, idx []int, scratch []float64) {
	if !meanCovKernel(mean, cov, pts, idx) {
		meanCovSums(mean, cov, pts, idx, scratch)
	}
	scatterToCov(cov, len(mean), len(idx))
}

// MeanCovUsesScratch reports whether MeanCovInto runs its Go sums, the
// only reader of its scratch, for well-formed rows of d columns on this
// CPU: wherever the AVX2 kernel does not take rows that wide. A bad
// index or row sends any width to the Go sums, which then panic on it
// whatever the scratch.
func MeanCovUsesScratch(d int) bool { return !meanCovKernelFits(d) }

// scatterToCov divides the upper triangle of the d x d scatter in cov by
// n-1 (1 when n < 2) and mirrors it into the lower one.
func scatterToCov(cov *Mat, d, n int) {
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

// meanCovSums sets mean to the rows' mean and the upper triangle of cov
// to the sums of their centered products, clearing the rest of cov: the
// Go half of MeanCovInto. The centered rows pass through scratch
// column-major, len(scratch)/d of them at a time, and each upper-triangle
// cell is a dot product of two columns accumulated in a register, four
// cells per pass: the per-row load-add-store of every cell becomes one
// per block, while each cell still adds the same products in the same
// order.
func meanCovSums(mean []float64, cov *Mat, pts [][]float64, idx []int, scratch []float64) {
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
	if d == 0 {
		return
	}
	if len(scratch) < d {
		scratch = make([]float64, d*max(1, min(n, MeanCovBlock)))
	}
	block := len(scratch) / d
	for from := 0; from < n; from += block {
		m := min(block, n-from)
		for t, ix := range idx[from : from+m] {
			r := pts[ix][:d]
			for j, v := range r {
				scratch[j*m+t] = v - mean[j]
			}
		}
		covAccumulate(cov.Data, scratch[:d*m], d, m)
	}
}

// covAccumulate adds, to each upper-triangle cell (j, k) of the d x d
// row-major c, the dot product of columns j and k of cols, which holds d
// columns of m values each. Cells go in row order four to a pass; a pass
// short of four repeats its last cell, which computes and stores the
// same value twice.
func covAccumulate(c, cols []float64, d, m int) {
	cells := d * (d + 1) / 2
	j, k := 0, 0 // the next cell
	for first := 0; first < cells; first += 4 {
		var at [4]int
		var a, b [4][]float64
		for q := range at {
			at[q] = j*d + k
			a[q], b[q] = cols[j*m:j*m+m], cols[k*m:k*m+m]
			if first+q+1 < cells {
				if k++; k == d {
					j++
					k = j
				}
			}
		}
		a0, a1, a2, a3 := a[0], a[1][:m], a[2][:m], a[3][:m]
		b0, b1, b2, b3 := b[0][:m], b[1][:m], b[2][:m], b[3][:m]
		s0, s1, s2, s3 := c[at[0]], c[at[1]], c[at[2]], c[at[3]]
		for t, v := range a0 {
			s0 += float64(v * b0[t])
			s1 += float64(a1[t] * b1[t])
			s2 += float64(a2[t] * b2[t])
			s3 += float64(a3[t] * b3[t])
		}
		c[at[0]], c[at[1]], c[at[2]], c[at[3]] = s0, s1, s2, s3
	}
}

// Ridge adds lambda to the diagonal of a in place and returns a; it is
// the regularization FastMCD applies when a candidate covariance is
// numerically singular.
func Ridge(a *Mat, lambda float64) *Mat {
	for i := 0; i < a.Rows; i++ {
		a.Set(i, i, a.At(i, i)+lambda)
	}
	return a
}
