package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func TestNelderMeadSphere(t *testing.T) {
	r := NelderMead(sphere, []float64{3, -2, 5}, 400)
	if r.F > 1e-8 {
		t.Fatalf("sphere minimum not found: f=%v x=%v", r.F, r.X)
	}
	for _, v := range r.X {
		if math.Abs(v) > 1e-3 {
			t.Fatalf("x not near origin: %v", r.X)
		}
	}
}

func TestNelderMeadRosenbrock2D(t *testing.T) {
	r := NelderMead(rosenbrock, []float64{-1.2, 1}, 2000)
	if math.Abs(r.X[0]-1) > 0.02 || math.Abs(r.X[1]-1) > 0.02 {
		t.Fatalf("rosenbrock optimum missed: %v (f=%v)", r.X, r.F)
	}
}

func TestNelderMeadShiftedQuadratic(t *testing.T) {
	f := func(seed int64) bool {
		// Deterministic shifted quadratic with seed-derived center.
		c := []float64{
			float64(seed%7) - 3,
			float64(seed%11) - 5,
		}
		obj := func(x []float64) float64 {
			dx, dy := x[0]-c[0], x[1]-c[1]
			return dx*dx + 3*dy*dy + 1.5
		}
		r := NelderMead(obj, []float64{0, 0}, 800)
		return math.Abs(r.X[0]-c[0]) < 1e-2 && math.Abs(r.X[1]-c[1]) < 1e-2 &&
			math.Abs(r.F-1.5) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNelderMeadHandlesNaN(t *testing.T) {
	// Objective undefined (NaN) outside the unit disk; NM should still find
	// the inside minimum at (0.2, 0).
	obj := func(x []float64) float64 {
		if x[0]*x[0]+x[1]*x[1] > 1 {
			return math.NaN()
		}
		d := x[0] - 0.2
		return d*d + x[1]*x[1]
	}
	r := NelderMead(obj, []float64{0, 0}, 400)
	if math.Abs(r.X[0]-0.2) > 1e-3 || math.Abs(r.X[1]) > 1e-3 {
		t.Fatalf("NaN-guarded optimum missed: %v", r.X)
	}
}

// gradient estimates ∇f at x with central differences, to check the
// stationarity of a solution.
func gradient(f Objective, x []float64, h float64) []float64 {
	if h == 0 {
		h = 1e-6
	}
	g := make([]float64, len(x))
	xx := append([]float64(nil), x...)
	for k := range x {
		step := h * (math.Abs(x[k]) + 1)
		xx[k] = x[k] + step
		fp := f(xx)
		xx[k] = x[k] - step
		fm := f(xx)
		xx[k] = x[k]
		g[k] = (fp - fm) / (2 * step)
	}
	return g
}

func TestGradient(t *testing.T) {
	g := gradient(sphere, []float64{1, -2}, 0)
	if math.Abs(g[0]-2) > 1e-4 || math.Abs(g[1]+4) > 1e-4 {
		t.Fatalf("gradient=%v want [2 -4]", g)
	}
}

func TestGradientNearZeroAtOptimum(t *testing.T) {
	r := NelderMead(rosenbrock, []float64{-1.2, 1}, 4000)
	g := gradient(rosenbrock, r.X, 0)
	for _, v := range g {
		if math.Abs(v) > 0.5 {
			t.Fatalf("gradient not small at optimum: %v (x=%v)", g, r.X)
		}
	}
}

func TestGoldenSectionViaPolish(t *testing.T) {
	// Polish must not worsen the result.
	start := Result{X: []float64{0.3, -0.4}, F: sphere([]float64{0.3, -0.4})}
	evals := 0
	out := polish(sphere, start, &evals)
	if out.F > start.F {
		t.Fatalf("polish worsened: %v -> %v", start.F, out.F)
	}
	if evals == 0 {
		t.Fatal("polish did not evaluate")
	}
}

func TestCoordinateDescentAnisotropic(t *testing.T) {
	// Strongly anisotropic quadratic: minimum at (2, -3, 0.5) with very
	// different curvatures — the shape kernel length-scale fitting has.
	obj := func(x []float64) float64 {
		d0, d1, d2 := x[0]-2, x[1]+3, x[2]-0.5
		return 100*d0*d0 + 0.01*d1*d1 + d2*d2
	}
	lo := []float64{-10, -10, -10}
	hi := []float64{10, 10, 10}
	r := CoordinateDescent(obj, []float64{9, 9, 9}, lo, hi, 3, 40)
	if math.Abs(r.X[0]-2) > 1e-3 || math.Abs(r.X[1]+3) > 1e-2 || math.Abs(r.X[2]-0.5) > 1e-3 {
		t.Fatalf("optimum missed: %v (f=%v)", r.X, r.F)
	}
	if r.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestCoordinateDescentRespectsBounds(t *testing.T) {
	obj := func(x []float64) float64 { return -x[0] } // pushes to upper bound
	r := CoordinateDescent(obj, []float64{0}, []float64{-1}, []float64{1}, 2, 40)
	if r.X[0] < 0.99 || r.X[0] > 1 {
		t.Fatalf("bound not respected/reached: %v", r.X)
	}
}

func TestCoordinateDescentHandlesNaN(t *testing.T) {
	obj := func(x []float64) float64 {
		if x[0] > 0.5 {
			return math.NaN()
		}
		d := x[0] - 0.2
		return d * d
	}
	r := CoordinateDescent(obj, []float64{0}, []float64{-1}, []float64{1}, 2, 40)
	if math.Abs(r.X[0]-0.2) > 1e-2 {
		t.Fatalf("NaN-guarded optimum missed: %v", r.X)
	}
}
