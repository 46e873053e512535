package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// sweepSpecials are the values that take the forward solve off its normal
// path, for the AVX2 differential test and fuzz target.
var sweepSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e300, -1e300, 1e-300, -1e-300,
	math.SmallestNonzeroFloat64, -3e-310, 2.2250738585072014e-308,
}

// checkSweepAVX2 runs the AVX2 sweep and the Go sweep over the same rows
// and requires the same key bits and index at every row. Two NaN keys
// count as the same whatever their payloads (sameBits): the Go sweep's
// four lanes do not all put the running norm on the same side of the
// add, so where two NaNs with different payloads meet, lanes of one Go
// sweep already disagree on which payload survives.
func checkSweepAVX2(t *testing.T, ch *Cholesky, pts [][]float64, mu []float64, what string) {
	t.Helper()
	p := len(mu)
	got, want := make([]KeyIdx, len(pts)), make([]KeyIdx, len(pts))
	for i := range got {
		got[i], want[i] = KeyIdx{Key: -7, Idx: -1}, KeyIdx{Key: -7, Idx: -1}
	}
	ch.MahalanobisSqAll(got, pts, mu, make([]float64, 8*p))
	ch.mahalanobisSqFrom(want, pts, mu, make([]float64, 8*p), 0)
	for r := range pts {
		if !sameBits(got[r].Key, want[r].Key) || got[r].Idx != want[r].Idx {
			t.Fatalf("%s: p=%d n=%d row %d %v: avx2 (%v (%#x), index %d), Go (%v (%#x), index %d)",
				what, p, len(pts), r, pts[r], got[r].Key, math.Float64bits(got[r].Key), got[r].Idx,
				want[r].Key, math.Float64bits(want[r].Key), want[r].Idx)
		}
	}
}

// scaledSPD is randomSPD(p) times scale, factored: scales near 1e±300
// put the factor's entries near the ends of the double range.
func scaledSPD(p int, scale float64, rng *rand.Rand) (*Cholesky, error) {
	a := randomSPD(p, rng)
	for i := range a.Data {
		a.Data[i] *= scale
	}
	ch := new(Cholesky)
	return ch, ch.Factor(a)
}

func TestSweepAVX2MatchesGoSweep(t *testing.T) {
	requireUnfused(t)
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: MahalanobisSqAll runs the Go sweep")
	}
	rng := rand.New(rand.NewPCG(67, 71))
	for p := 1; p <= 12; p++ {
		for _, scale := range []float64{1, 1e-300, 1e300, 1e-200} {
			ch, err := scaledSPD(p, scale, rng)
			if err != nil {
				t.Fatalf("p=%d scale %g: %v", p, scale, err)
			}
			mu := make([]float64, p)
			for i := range mu {
				mu[i] = rng.NormFloat64() * math.Sqrt(scale)
			}
			for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 30, 101} {
				for _, special := range []bool{false, true} {
					pts := make([][]float64, n)
					for r := range pts {
						pts[r] = make([]float64, p)
						for i := range pts[r] {
							pts[r][i] = rng.NormFloat64() * 3 * math.Sqrt(scale)
						}
						if special && r%3 != 0 {
							for i := range pts[r] {
								if rng.IntN(2) == 0 {
									pts[r][i] = sweepSpecials[rng.IntN(len(sweepSpecials))]
								}
							}
						}
					}
					checkSweepAVX2(t, ch, pts, mu, "table")
				}
			}
		}
	}
}

// TestSweepAVX2ShortRowPanics: a row shorter than mu stops the kernel at
// its group, and the Go sweep then panics on it as it always has.
func TestSweepAVX2ShortRowPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 79))
	ch, err := scaledSPD(3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 20)
	for r := range pts {
		pts[r] = []float64{1, 2, 3}
	}
	pts[11] = []float64{1, 2}
	dst := make([]KeyIdx, len(pts))
	defer func() {
		if recover() == nil {
			t.Fatal("a short row did not panic")
		}
		for r := range 8 {
			if dst[r].Idx != r {
				t.Fatalf("row %d before the short row's group was not swept", r)
			}
		}
	}()
	ch.MahalanobisSqAll(dst, pts, make([]float64, 3), nil)
}

// FuzzSweepAVX2MatchesGoSweep feeds the AVX2 sweep rows and a centre
// whose bits come from the input, against a factor of dimension 1-12
// scaled by 10^(scale exponent), and requires the Go sweep's key bits.
func FuzzSweepAVX2MatchesGoSweep(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(7), uint8(13), int16(0), uint64(1), seed(1, -2, 3.5))
	f.Add(uint8(3), uint8(9), int16(-300), uint64(2), seed(sweepSpecials...))
	f.Add(uint8(12), uint8(6), int16(300), uint64(3), seed(math.NaN(), math.Inf(1), math.Inf(-1), 1e-310))
	f.Add(uint8(1), uint8(31), int16(0), uint64(4), seed(math.Inf(1), math.Inf(1), 5, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, pb, nb uint8, exp int16, s uint64, data []byte) {
		requireUnfused(t)
		if !haveAVX2 {
			t.Skip("no AVX2 on this CPU")
		}
		p, n := 1+int(pb)%12, int(nb)%40
		rng := rand.New(rand.NewPCG(s, 83))
		ch, err := scaledSPD(p, math.Pow(10, float64(exp%310)), rng)
		if err != nil {
			t.Skip("the scaled matrix does not factor") // a scale of 1e309 is +Inf
		}
		next := func() float64 {
			if len(data) < 8 {
				return rng.NormFloat64()
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		mu := make([]float64, p)
		for i := range mu {
			mu[i] = next()
		}
		pts := make([][]float64, n)
		for r := range pts {
			pts[r] = make([]float64, p)
			for i := range pts[r] {
				pts[r][i] = next()
			}
		}
		checkSweepAVX2(t, ch, pts, mu, "fuzz")
	})
}
