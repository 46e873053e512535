package stats

// haveAVX2 reports whether MahalanobisSqAll runs the AVX2 sweep: the CPU
// has AVX and AVX2 and the OS saves the YMM registers across context
// switches (OSXSAVE set, XCR0 bits 1 and 2). It is read once, at init.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// sweepAVX2 is MahalanobisSqAll's forward solve for whole groups of four
// rows, written in assembly: each YMM lane carries one row, so a register
// solves four. It sets dst[r] for r from 0 up to the returned count,
// which is len(pts) rounded down to a multiple of four, or the first
// group holding a row shorter than len(mu) (the Go sweep then reaches
// that row and panics on it as before). l is the p x p factor's storage
// and z holds the group's four solves, 4p floats.
//
//go:noescape
func sweepAVX2(dst []KeyIdx, pts [][]float64, mu, l, z []float64) int

// sweepKernel runs the AVX2 sweep where the CPU has it and reports how
// many rows it set; elsewhere it sets none.
func sweepKernel(dst []KeyIdx, pts [][]float64, mu, l, z []float64) int {
	if !haveAVX2 {
		return 0
	}
	return sweepAVX2(dst, pts, mu, l, z)
}
