package stats

import "math"

// NormalCDF returns P(Z <= x) for a standard normal Z. The product is
// rounded so that a caller's add or subtract, once NormalCDF is inlined,
// cannot fuse with it.
func NormalCDF(x float64) float64 { return float64(0.5 * math.Erfc(-x/math.Sqrt2)) }

// NormalQuantile returns the x with NormalCDF(x) = p using the
// Beasley-Springer-Moro/Acklam rational approximation refined by one
// Halley step, accurate to ~1e-15 over (0,1).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		if p == 0 {
			return math.Inf(-1)
		}
		return math.NaN()
	}
	if p >= 1 {
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients from Acklam's algorithm.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = horner(q, c[:]...) / (float64(horner(q, d[:]...)*q) + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = horner(r, a[:]...) * q / (float64(horner(r, b[:]...)*r) + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -horner(q, c[:]...) / (float64(horner(q, d[:]...)*q) + 1)
	}
	// One Halley refinement.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+float64(x*u/2))
	return x
}

// horner evaluates c[0]x^(n-1) + c[1]x^(n-2) + ... + c[n-1] by Horner's
// rule, rounding each product before its add.
func horner(x float64, c ...float64) float64 {
	s := c[0]
	for _, v := range c[1:] {
		s = float64(s*x) + v
	}
	return s
}

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x)/Gamma(a), computed by series expansion for
// x < a+1 and by Lentz's continued fraction otherwise
// (Numerical Recipes gammp).
func GammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaCF(a, x)
	}
}

func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del = float64(del * (x / ap))
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+float64(a*math.Log(x))-lg)
}

func gammaCF(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = float64(an*d) + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+float64(a*math.Log(x))-lg) * h
}

// ChiSquareCDF returns P(X <= x) for a chi-square variable with k
// degrees of freedom.
func ChiSquareCDF(x float64, k float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaP(k/2, x/2)
}

// ChiSquareQuantile returns the x with ChiSquareCDF(x, k) = p, using a
// Wilson-Hilferty starting point refined by Newton iterations on the
// incomplete gamma. FastMCD uses the 0.5 quantile for its consistency
// correction (paper Appendix A).
func ChiSquareQuantile(p, k float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Wilson-Hilferty approximation.
	z := NormalQuantile(p)
	t := 1 - 2/(9*k) + float64(z*math.Sqrt(2/(9*k)))
	x := k * t * t * t
	if x <= 0 {
		x = 1e-8
	}
	lg, _ := math.Lgamma(k / 2)
	for i := 0; i < 64; i++ {
		f := ChiSquareCDF(x, k) - p
		// Chi-square density at x.
		pdf := math.Exp(float64((float64(k/2)-1)*math.Log(x)) - float64(x/2) - float64((k/2)*math.Ln2) - lg)
		if pdf <= 0 {
			break
		}
		step := f / pdf
		nx := x - step
		if nx <= 0 {
			nx = x / 2
		}
		if math.Abs(nx-x) < 1e-12*(1+x) {
			x = nx
			break
		}
		x = nx
	}
	return x
}
