// Package mathx provides the scalar numerical routines Verdict's inference
// relies on: the analytic double integral of the squared-exponential kernel
// (Appendix F.1 of the paper), normal-distribution quantiles used for
// confidence-interval multipliers, and streaming moment accumulators used by
// the AQP engine's CLT-based error estimation.
//
// Everything here is pure-Go, allocation-free, and deterministic.
package mathx

import (
	"errors"
	"math"
)

// SqrtPi is √π, used by the kernel integral closed form.
const SqrtPi = 1.7724538509055160272981674833411

// ErrBadInterval is returned by quantile helpers when inputs are out of range.
var ErrBadInterval = errors.New("mathx: probability not in (0,1)")

// kernelAntideriv evaluates the indefinite double integral of
// exp(-(x-y)²/z²), following Appendix F.1:
//
//	f(x,y) = -z²/2 · exp(-(x-y)²/z²) - (√π/2)·z·(x-y)·erf((x-y)/z)
//
// The definite integral over [a,b]×[c,d] is f(b,d)-f(b,c)-f(a,d)+f(a,c).
func kernelAntideriv(x, y, z float64) float64 {
	d := x - y
	u := d / z
	return -0.5*z*z*math.Exp(-u*u) - 0.5*SqrtPi*z*d*math.Erf(u)
}

// SqExpDoubleIntegral computes ∫_a^b ∫_c^d exp(-(x-y)²/z²) dy dx
// analytically. z is the kernel length-scale and must be positive; a<=b and
// c<=d are the two integration ranges (snippet selection ranges on one
// dimension attribute).
//
// Degenerate ranges (a==b or c==d) integrate to zero by definition; callers
// that need point-equality semantics (categorical attributes) should use the
// overlap factors in internal/kernel instead.
func SqExpDoubleIntegral(a, b, c, d, z float64) float64 {
	if z <= 0 {
		panic("mathx: non-positive length-scale")
	}
	if a == b || c == d {
		return 0
	}
	// When z dwarfs every point distance, the antiderivative's -z²/2·exp
	// term suffers catastrophic cancellation (its magnitude is ~z² while
	// the answer is ~area). Switch to the second-order Taylor expansion
	// exp(-d²/z²) ≈ 1 − d²/z², whose truncation error is O((d/z)⁴).
	dmax := math.Max(math.Max(math.Abs(a-c), math.Abs(a-d)),
		math.Max(math.Abs(b-c), math.Abs(b-d)))
	if dmax < 1e-4*z {
		area := (b - a) * (d - c)
		quart := func(v float64) float64 { return v * v * v * v }
		i2 := (quart(b-c) - quart(a-c) - quart(b-d) + quart(a-d)) / 12
		return area - i2/(z*z)
	}
	v := kernelAntideriv(b, d, z) - kernelAntideriv(b, c, z) -
		kernelAntideriv(a, d, z) + kernelAntideriv(a, c, z)
	// The integrand is positive, so the integral is non-negative; tiny
	// negative values can appear from cancellation on far-apart ranges.
	if v < 0 {
		return 0
	}
	return v
}

// SqExpMeanIntegral computes the mean of exp(-(x-y)²/z²) over [a,b]×[c,d]:
// the double integral divided by (b-a)(d-c). It is the covariance factor for
// AVG-type snippets, which normalize by region volume (Appendix F.3).
// For degenerate ranges it takes the pointwise limit.
func SqExpMeanIntegral(a, b, c, d, z float64) float64 {
	wx, wy := b-a, d-c
	switch {
	case wx == 0 && wy == 0:
		u := (a - c) / z
		return math.Exp(-u * u)
	case wx == 0:
		return sqExpLineIntegral(a, c, d, z) / wy
	case wy == 0:
		return sqExpLineIntegral(c, a, b, z) / wx
	default:
		return SqExpDoubleIntegral(a, b, c, d, z) / (wx * wy)
	}
}

// sqExpLineIntegral computes ∫_c^d exp(-(x-y)²/z²) dy for a fixed x:
// (√π/2)·z·(erf((x-c)/z) - erf((x-d)/z)).
func sqExpLineIntegral(x, c, d, z float64) float64 {
	return 0.5 * SqrtPi * z * (math.Erf((x-c)/z) - math.Erf((x-d)/z))
}

// NormalQuantile returns z_p such that P(Z <= z_p) = p for a standard normal
// Z. It uses the Acklam rational approximation (relative error < 1.15e-9),
// which is sufficient for confidence-interval multipliers.
func NormalQuantile(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, ErrBadInterval
	}
	// Coefficients for the Acklam inverse-normal approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step using the normal pdf/cdf.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x, nil
}

// ConfidenceMultiplier returns α_δ, the half-width multiplier such that a
// standard normal falls within (-α_δ, α_δ) with probability δ (Section 3.4).
func ConfidenceMultiplier(delta float64) (float64, error) {
	if !(delta > 0 && delta < 1) {
		return 0, ErrBadInterval
	}
	return NormalQuantile(0.5 + delta/2)
}

// NormalCDF is the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Moments accumulates count, mean and variance online (Welford's algorithm).
// The zero value is ready to use. It is the building block for the AQP
// engine's running estimates and their CLT standard errors.
type Moments struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// AddWeighted folds an observation with an integer multiplicity, in O(1):
// w copies of x form a sub-population with mean x and zero scatter, so the
// fold is a single parallel-Welford merge.
func (m *Moments) AddWeighted(x float64, w int64) {
	if w <= 0 {
		return
	}
	m.Merge(Moments{n: w, mean: x})
}

// AddZeros folds k zero observations in O(1) — the FREQ indicator path for
// rows outside the selection region.
func (m *Moments) AddZeros(k int64) { m.AddWeighted(0, k) }

// AddSlice folds a batch of observations with two tight passes (sum, then
// squared deviations) and one merge, avoiding per-value function-call and
// division overhead on the vectorized scan path.
func (m *Moments) AddSlice(xs []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	var m2 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	m.Merge(Moments{n: int64(n), mean: mean, m2: m2})
}

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	delta := o.mean - m.mean
	m.m2 += o.m2 + delta*delta*float64(m.n)*float64(o.n)/float64(n)
	m.mean += delta * float64(o.n) / float64(n)
	m.n = n
}

// Count returns the number of observations.
func (m *Moments) Count() int64 { return m.n }

// Mean returns the running mean (0 when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the population variance (0 for fewer than 2 points).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the Bessel-corrected variance.
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdErr returns the CLT standard error of the mean, √(s²/n).
func (m *Moments) StdErr() float64 {
	if m.n < 2 {
		return math.Inf(1)
	}
	return math.Sqrt(m.SampleVariance() / float64(m.n))
}

// Quantile returns the q-th quantile (0<=q<=1) of xs using linear
// interpolation on a sorted copy. xs may be unsorted; it is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	insertionSort(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func insertionSort(xs []float64) {
	// Quantile inputs in this codebase are small (per-experiment error
	// samples); a branch-light insertion sort beats sort.Float64s there
	// and keeps the package free of interface allocations.
	if len(xs) > 64 {
		quickSort(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func quickSort(xs []float64) {
	for len(xs) > 64 {
		p := partition(xs)
		if p < len(xs)-p {
			quickSort(xs[:p])
			xs = xs[p+1:]
		} else {
			quickSort(xs[p+1:])
			xs = xs[:p]
		}
	}
	insertionSort(xs)
}

func partition(xs []float64) int {
	mid := len(xs) / 2
	hi := len(xs) - 1
	// Median-of-three pivot.
	if xs[mid] < xs[0] {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if xs[hi] < xs[0] {
		xs[hi], xs[0] = xs[0], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi-1] = xs[hi-1], xs[mid]
	i, j := 0, hi-1
	for {
		for i++; xs[i] < pivot; i++ {
		}
		for j--; xs[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
	xs[i], xs[hi-1] = xs[hi-1], xs[i]
	return i
}
