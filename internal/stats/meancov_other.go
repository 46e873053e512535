//go:build !amd64

package stats

// meanCovKernelFits is false off amd64: no row width takes the kernel.
func meanCovKernelFits(d int) bool { return false }

// meanCovKernel leaves MeanCovInto to its Go sums off amd64.
func meanCovKernel(mean []float64, cov *Mat, pts [][]float64, idx []int) bool { return false }
