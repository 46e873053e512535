//go:build !amd64

package stats

// haveAVX2 is false off amd64: MahalanobisSqAll's Go sweep is the only one.
const haveAVX2 = false

// sweepKernel sets no rows off amd64.
func sweepKernel(dst []KeyIdx, pts [][]float64, mu, l, z []float64) int { return 0 }
