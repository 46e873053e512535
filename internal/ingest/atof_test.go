package ingest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"macrobase/internal/gen"
)

// parseFloatOracle is parseFloat as it was before the fast path: every
// field through strconv.ParseFloat, then the finiteness check.
func parseFloatOracle(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err == nil {
		err = checkFinite(v)
	}
	return v, err
}

// checkParseFloat fails t unless parseFloat returns the oracle's bits
// and the oracle's error text for s.
func checkParseFloat(t *testing.T, s string) {
	t.Helper()
	got, gerr := parseFloat([]byte(s))
	want, werr := parseFloatOracle([]byte(s))
	if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv: %v (%#x), %v",
			s, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
	}
}

// parseFloatSeeds are fields around every edge of the fast path: signs
// and zeros, 19- and 20-digit mantissas, halfway and near-halfway values,
// the subnormal and overflow boundaries, syntax strconv accepts and the
// fast path does not, and syntax neither accepts; plus, for every decimal
// exponent from -350 to 350, a short and a 19-digit mantissa.
func parseFloatSeeds() []string {
	seeds := []string{
		"0", "-0", "+0", "0.0", "-0.0", "00", "000.000", "0e0", "-0e-999", "0e99999",
		"1", "-1", "+1", "1.", ".5", "+.5", "-.5", "5.e3", "007", "0.007", "-0.000001",
		"1e0", "1E5", "1e+5", "1e-5", "1e", "1e+", "1e-", "e5", ".", "+", "-", "", "+-1", "1..2", "1.2.3",
		"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615",
		"18446744073709551616", "0.1234567890123456789", "0.12345678901234567890", "1234567890.123456789",
		"123456789.0123456789", "0.00000000000000000000000000001234567890123456789",
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
		"4503599627370496.5", "4503599627370497.5", "1.00000000000000011102230246251565404236316680908203125",
		"0.1", "0.2", "0.3", "1.1", "123.456", "32.418987645171796", "6.442312152544227", "-40.0001",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309", "-1e309",
		"1e22", "1e23", "9007199254740993e-22", "9007199254740993e22", "123456789012345678e-5",
		"1_0", "1_000.5", "0x1p3", "0X1P-2", "0x10", "inf", "-Inf", "+infinity", "nan", "NaN",
		"1.5x", "x1.5", " 1", "1 ", "1,5", "1e1000000000000000000000", "1e-00000000000000000005",
	}
	for e := -350; e <= 350; e++ {
		seeds = append(seeds, fmt.Sprintf("1e%d", e), fmt.Sprintf("-9.876543210987654321e%d", e))
	}
	return seeds
}

// TestParseFloatMatchesStrconv holds parseFloat to strconv on the seeds
// and on random fields: shortest-round-trip floats of every magnitude
// (the CSVs ingest.WriteCSV writes) and random digit strings.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, s := range parseFloatSeeds() {
		checkParseFloat(t, s)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200_000; i++ {
		var s string
		switch i % 4 {
		case 0:
			s = strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		case 1:
			s = strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.IntN(40)-20)), 'f', rng.IntN(18), 64)
		case 2:
			s = strconv.FormatFloat(rng.ExpFloat64(), 'e', rng.IntN(20), 64)
		default:
			b := make([]byte, 1+rng.IntN(24))
			for j := range b {
				b[j] = "0123456789.e-+"[rng.IntN(14)]
			}
			s = string(b)
		}
		checkParseFloat(t, s)
	}
}

// TestParseFloatTakesFastPath: the fields a generated CSV holds parse on
// atof, not on strconv, so a fast path that declined everything (and so
// still matched strconv) would fail here.
func TestParseFloatTakesFastPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	declined := 0
	for i := 0; i < 10_000; i++ {
		s := strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.IntN(12)-4)), 'g', -1, 64)
		if _, ok := atof([]byte(s)); !ok {
			declined++
		}
	}
	if declined > 10 {
		t.Errorf("atof declined %d of 10000 shortest-round-trip floats", declined)
	}
}

// TestPow10Mantissas checks the init-computed table against mantissas
// strconv's own table lists: 10^-348, 10^-1 (0.1's repeating 0xC...C,
// rounded down), 10^0, 10^43 (rounded down from 0xE596B7B0C643C7196D9CCD05D0000000)
// and 10^347.
func TestPow10Mantissas(t *testing.T) {
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[c.q-pow10Min]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d: mantissa {%#x, %#x}, want {%#x, %#x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
}

// TestParseEight holds the eight-digit SWAR step to a byte loop.
func TestParseEight(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10_000; i++ {
		b := []byte(fmt.Sprintf("%08d", rng.IntN(100_000_000)))
		if i%3 == 0 {
			b[rng.IntN(8)] = byte(rng.IntN(256))
		}
		want, all := uint32(0), true
		for _, c := range b {
			all = all && '0' <= c && c <= '9'
			want = want*10 + uint32(c-'0')
		}
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if eightDigits(v) != all {
			t.Fatalf("eightDigits(%q) = %v", b, !all)
		}
		if all && parseEight(v) != want {
			t.Fatalf("parseEight(%q) = %d, want %d", b, parseEight(v), want)
		}
	}
}

// FuzzParseFloatMatchesStrconv: any field parses to strconv's bits and
// fails with strconv's error.
func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, s := range parseFloatSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParseFloat(t, s)
	})
}

// BenchmarkParseFloat parses the metric fields of a batch_query input
// (4K CMT rows of 7 metrics, written as WriteCSV writes them), per
// field: strconv is the parse before the fast path, fast is parseFloat.
func BenchmarkParseFloat(b *testing.B) {
	ds, err := gen.DatasetByName("CMT")
	if err != nil {
		b.Fatal(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: 4_000, Seed: 42})
	var fields [][]byte
	for _, p := range pts {
		for _, m := range p.Metrics {
			fields = append(fields, strconv.AppendFloat(nil, m, 'g', -1, 64))
		}
	}
	for _, k := range []struct {
		name  string
		parse func([]byte) (float64, error)
	}{{"strconv", parseFloatOracle}, {"fast", parseFloat}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					if _, err := k.parse(f); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fields)), "ns/field")
		})
	}
}
