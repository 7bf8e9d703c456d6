// Package optimize provides the derivative-free nonlinear optimization used
// by Verdict's offline correlation-parameter learning (Appendix A). The
// paper maximizes the non-convex Gaussian log-likelihood of past snippet
// answers (Eq. 13) with Matlab's fminunc *without explicit gradients*. What
// runs here is coordinate-wise golden-section descent from the paper's
// starting point, then one Nelder–Mead simplex started from its optimum and
// finished by a golden-section polish. The paper's "multiple random
// starting points" are not reproduced: the learner is a single local
// search, and its optimum can sit on a knife edge — last-bit changes in the
// recorded answers can move the learned parameters far (CHANGES.md records
// the case found in Figure 6b).
package optimize

import "math"

// Objective is a function to be minimized.
type Objective func(x []float64) float64

// The simplex's convergence tolerance on the spread of its vertex values,
// and the initial simplex's step per coordinate relative to |x|+1.
const (
	simplexTol  = 1e-8
	initialStep = 0.5
)

// Result reports the best point found.
type Result struct {
	X     []float64
	F     float64
	Evals int
}

// NelderMead minimizes f starting from x0 with the standard
// reflection/expansion/contraction/shrink simplex updates, then polishes
// the best vertex with one coordinate-wise golden-section sweep. It stops
// after maxIter simplex iterations, or earlier once the vertex values agree
// to simplexTol.
func NelderMead(f Objective, x0 []float64, maxIter int) Result {
	n := len(x0)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex: x0 plus a perturbation along each axis.
	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	for i := range pts {
		p := append([]float64(nil), x0...)
		if i > 0 {
			step := initialStep * (math.Abs(p[i-1]) + 1)
			p[i-1] += step
		}
		pts[i] = p
		vals[i] = eval(p)
	}

	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	order := make([]int, n+1)
	for iter := 0; iter < maxIter; iter++ {
		// Order vertices by value (selection sort on a tiny slice).
		for i := range order {
			order[i] = i
		}
		for i := 0; i < len(order); i++ {
			best := i
			for j := i + 1; j < len(order); j++ {
				if vals[order[j]] < vals[order[best]] {
					best = j
				}
			}
			order[i], order[best] = order[best], order[i]
		}
		lo, hi, second := order[0], order[n], order[n-1]

		// Convergence: spread of function values and simplex diameter.
		if math.Abs(vals[hi]-vals[lo]) < simplexTol*(1+math.Abs(vals[lo])) {
			break
		}

		// Centroid of all but the worst vertex.
		centroid := make([]float64, n)
		for _, idx := range order[:n] {
			for k, v := range pts[idx] {
				centroid[k] += v
			}
		}
		for k := range centroid {
			centroid[k] /= float64(n)
		}

		reflect := make([]float64, n)
		for k := range reflect {
			reflect[k] = centroid[k] + alpha*(centroid[k]-pts[hi][k])
		}
		fr := eval(reflect)
		switch {
		case fr < vals[lo]:
			// Try expansion.
			expand := make([]float64, n)
			for k := range expand {
				expand[k] = centroid[k] + gamma*(reflect[k]-centroid[k])
			}
			if fe := eval(expand); fe < fr {
				pts[hi], vals[hi] = expand, fe
			} else {
				pts[hi], vals[hi] = reflect, fr
			}
		case fr < vals[second]:
			pts[hi], vals[hi] = reflect, fr
		default:
			// Contraction toward the better of worst/reflected.
			contract := make([]float64, n)
			base := pts[hi]
			fbase := vals[hi]
			if fr < vals[hi] {
				base, fbase = reflect, fr
			}
			for k := range contract {
				contract[k] = centroid[k] + rho*(base[k]-centroid[k])
			}
			if fc := eval(contract); fc < fbase {
				pts[hi], vals[hi] = contract, fc
			} else {
				// Shrink everything toward the best vertex.
				for _, idx := range order[1:] {
					for k := range pts[idx] {
						pts[idx][k] = pts[lo][k] + sigma*(pts[idx][k]-pts[lo][k])
					}
					vals[idx] = eval(pts[idx])
				}
			}
		}
	}

	best := 0
	for i, v := range vals {
		if v < vals[best] {
			best = i
		}
	}
	res := polish(f, Result{X: append([]float64(nil), pts[best]...), F: vals[best]}, &evals)
	res.Evals = evals
	return res
}

// polish runs one coordinate-wise golden-section sweep around the simplex
// solution, which reliably tightens the last digit or two on the smooth
// likelihood surfaces Eq. 13 produces.
func polish(f Objective, r Result, evals *int) Result {
	x := append([]float64(nil), r.X...)
	fx := r.F
	for k := range x {
		span := 0.25 * (math.Abs(x[k]) + 1)
		xk, fk := goldenSection(func(v float64) float64 {
			*evals++
			old := x[k]
			x[k] = v
			val := f(x)
			x[k] = old
			if math.IsNaN(val) {
				return math.Inf(1)
			}
			return val
		}, x[k]-span, x[k]+span, 40)
		if fk < fx {
			x[k], fx = xk, fk
		}
	}
	return Result{X: x, F: fx}
}

// goldenSection minimizes a univariate function on [a,b].
func goldenSection(f func(float64) float64, a, b float64, iters int) (float64, float64) {
	const invPhi = 0.6180339887498949
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	if fc < fd {
		return c, fc
	}
	return d, fd
}

// CoordinateDescent minimizes f by cycling golden-section line searches
// over each coordinate within [lo[k], hi[k]], for the given number of
// rounds. For anisotropic kernel length-scale fitting this is far more
// reliable than a high-dimensional simplex: each length-scale has a
// well-behaved 1-D profile once the others are held fixed, while the joint
// simplex routinely leaves some coordinates untouched at their starting
// values.
func CoordinateDescent(f Objective, x0, lo, hi []float64, rounds, iters int) Result {
	n := len(x0)
	if len(lo) != n || len(hi) != n {
		panic("optimize: bound length mismatch")
	}
	if rounds <= 0 {
		rounds = 2
	}
	if iters <= 0 {
		iters = 30
	}
	x := append([]float64(nil), x0...)
	evals := 0
	guard := func(v float64) float64 {
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	fx := guard(f(x))
	evals++
	for round := 0; round < rounds; round++ {
		for k := 0; k < n; k++ {
			xk, fk := goldenSection(func(v float64) float64 {
				evals++
				old := x[k]
				x[k] = v
				val := guard(f(x))
				x[k] = old
				return val
			}, lo[k], hi[k], iters)
			if fk < fx {
				x[k], fx = xk, fk
			}
		}
	}
	return Result{X: x, F: fx, Evals: evals}
}
