package stats

// meanSumAVX2 sums the rows pts[idx[t]], t in order, into sum, one YMM
// lane per column of the d (1 to 8) it reads; sum[d:] is left zero. It
// returns false, with sum untouched, at the first index out of range or
// row shorter than d.
//
//go:noescape
func meanSumAVX2(sum *[8]float64, pts [][]float64, idx []int, d int) bool

// covSumAVX2 adds, for t in order, the products c_j*c_k of the centred
// row c = pts[idx[t]] - mean into acc[8j+k], one YMM lane per cell, for
// every cell of the upper triangle of the d x d (d 1 to 8) scatter.
// mean[d:] must be zero; every index and row must have passed
// meanSumAVX2.
//
//go:noescape
func covSumAVX2(acc *[64]float64, pts [][]float64, idx []int, mean *[8]float64, d int)

// meanCovKernel is meanCovSums on AVX2, for rows of 1 to 8 columns: the
// same sums of the same terms in the same order, so the same bits. It
// reports false, having written nothing, where the CPU lacks AVX2, d is
// outside 1-8, or an index or a row is bad (meanCovSums then panics on
// it as it always has).
func meanCovKernel(mean []float64, cov *Mat, pts [][]float64, idx []int) bool {
	d := len(mean)
	if !haveAVX2 || d == 0 || d > 8 {
		return false
	}
	var sum [8]float64
	if !meanSumAVX2(&sum, pts, idx, d) {
		return false
	}
	var mu [8]float64
	for j := range mean {
		mean[j] = sum[j] / float64(len(idx))
		mu[j] = mean[j]
	}
	var acc [64]float64
	covSumAVX2(&acc, pts, idx, &mu, d)
	clear(cov.Data)
	for j := 0; j < d; j++ {
		copy(cov.Data[j*d+j:j*d+d], acc[8*j+j:8*j+d])
	}
	return true
}
