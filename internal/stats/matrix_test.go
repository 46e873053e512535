package stats

import (
	"math"
	"math/rand/v2"
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
	MeanCovInto(mean, cov, pts, []int{0, 1, 2, 3})
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
	MeanCovInto(mean, cov, pts, []int{0, 2})
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
	MeanCovInto(mean, cov, pts, []int{2, 0, 1})
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
