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

// NewCholesky factors the symmetric positive definite matrix a. Only
// the lower triangle of a is read. Returns ErrNotSPD when a pivot is
// not strictly positive.
func NewCholesky(a *Mat) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor is NewCholesky into c's own storage, which is allocated only
// when the dimension changes: a loop that refactors same-sized matrices
// allocates once. After an error c holds no usable factor.
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
				sum -= li[k] * lj[k]
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

// Inverse returns A⁻¹ by solving against the identity.
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
			s -= li[k] * z[k]
		}
		z[i] = s / li[i]
	}
	d := 0.0
	for _, v := range z {
		d += v * v
	}
	return d
}

// MeanCovInto computes the sample mean and covariance (denominator
// n-1) of the rows pts[idx[0]], pts[idx[1]], ... into the caller's mean
// (length d) and cov (d x d), overwriting both. Rows are summed in the
// order idx lists them, so the result's low-order bits are a function
// of that order; it allocates nothing for d <= 32.
func MeanCovInto(mean []float64, cov *Mat, pts [][]float64, idx []int) {
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
	var buf [32]float64
	diff := buf[:]
	if d > len(buf) {
		diff = make([]float64, d)
	}
	diff = diff[:d]
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

// Ridge adds lambda to the diagonal of a in place and returns a; it is
// the regularization FastMCD applies when a candidate covariance is
// numerically singular.
func Ridge(a *Mat, lambda float64) *Mat {
	for i := 0; i < a.Rows; i++ {
		a.Set(i, i, a.At(i, i)+lambda)
	}
	return a
}
