//go:build !amd64

package stats

// meanCovKernel leaves MeanCovInto to its Go sums off amd64.
func meanCovKernel(mean []float64, cov *Mat, pts [][]float64, idx []int) bool { return false }
