package mcd

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// parentFitBits pins whole fits to the bit: a digest of the
// math.Float64bits of Mean, Cov, LogDet and 100 scores, with H and
// CSteps, for each oracle shape and n=40K p=7 at fit seeds 0-3. The
// digests were recorded on the commit before the C-step swept four
// points at a time and summed covariance cells in registers, so they
// hold the fit to what the one-point sweep and the row-major covariance
// computed.
var parentFitBits = map[string]uint64{
	"n50-p2/0":    0x52a5d549be811cf7,
	"n50-p2/1":    0xdb2a4f8563f2d51e,
	"n50-p2/2":    0xe25203eb15334381,
	"n50-p2/3":    0x40bf1daf614c4e9c,
	"n600-p3/0":   0x24278f85c2b45a39,
	"n600-p3/1":   0x61383f80b592682f,
	"n600-p3/2":   0xf3be78df134870b6,
	"n600-p3/3":   0x97627901a991a312,
	"n601-p7/0":   0xed6adb02d46cb75a,
	"n601-p7/1":   0x69656212d4eced32,
	"n601-p7/2":   0x108a7277c1b14614,
	"n601-p7/3":   0x93e3b2757b48d264,
	"n10k-p7/0":   0x12f07713c79750f,
	"n10k-p7/1":   0xf3ec92523bdb68d4,
	"n10k-p7/2":   0x16fb7d20603125c7,
	"n10k-p7/3":   0x6f3e3ada438717f3,
	"dup-rows/0":  0x5aa0ef4a8d176f38,
	"dup-rows/1":  0x67934d035815615f,
	"dup-rows/2":  0x9f22aeef8636d3d4,
	"dup-rows/3":  0x63a04d6494988800,
	"const-col/0": 0x87ba8812a41143d8,
	"const-col/1": 0x7979dc809379162e,
	"const-col/2": 0xfd3c0e468aa53d31,
	"const-col/3": 0xcb7f137c0ee01fed,
	"n40k-p7/0":   0x974d6a9b29647f1f,
	"n40k-p7/1":   0x2a9c76b92b51b294,
	"n40k-p7/2":   0x52a316f4b6582299,
	"n40k-p7/3":   0xbbf0e1944bb0166,
}

// fitDigest hashes everything a fit hands its callers.
func fitDigest(pts [][]float64, est *Estimate) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	for _, v := range est.Mean {
		put(math.Float64bits(v))
	}
	for _, v := range est.Cov.Data {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(est.LogDet))
	put(uint64(est.H))
	put(uint64(est.CSteps))
	for i := 0; i < 100; i++ {
		put(math.Float64bits(est.Score(pts[i*len(pts)/100])))
	}
	return f.Sum64()
}

// TestFitBitsMatchParent: the four-point sweep and the register-summed
// covariance change no bit of any fit. Go may fuse a multiply and an add
// into one rounding on other architectures, and may do it differently
// in the one-point and four-point loops; on amd64 it never fuses (at
// GOAMD64 v1 or v3, `s -= a*b` compiles to MULSD then SUBSD).
func TestFitBitsMatchParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded without fused multiply-adds, which only amd64 guarantees")
	}
	fits := func(name string, cfg Config, data func(seed uint64) [][]float64) {
		for seed := uint64(0); seed < 4; seed++ {
			pts := data(seed)
			cfg.Seed = seed
			est, err := Fit(pts, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			if got, want := fitDigest(pts, est), parentFitBits[key]; got != want {
				t.Errorf("%q: %#x, // parent %#x", key, got, want)
			}
		}
	}
	for _, sh := range oracleShapes {
		fits(sh.name, sh.cfg, sh.data)
	}
	fits("n40k-p7", Config{}, func(s uint64) [][]float64 { return gaussMix(40_000, 7, s) })
}
