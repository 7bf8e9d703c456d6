package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericDoubleIntegral brute-forces ∫∫ exp(-(x-y)²/z²) with a midpoint rule
// as an oracle for the analytic closed form.
func numericDoubleIntegral(a, b, c, d, z float64, steps int) float64 {
	hx := (b - a) / float64(steps)
	hy := (d - c) / float64(steps)
	sum := 0.0
	for i := 0; i < steps; i++ {
		x := a + (float64(i)+0.5)*hx
		for j := 0; j < steps; j++ {
			y := c + (float64(j)+0.5)*hy
			u := (x - y) / z
			sum += math.Exp(-u * u)
		}
	}
	return sum * hx * hy
}

func TestSqExpDoubleIntegralMatchesNumeric(t *testing.T) {
	cases := []struct{ a, b, c, d, z float64 }{
		{0, 1, 0, 1, 1},
		{0, 1, 0, 1, 0.1},
		{0, 1, 2, 3, 0.5},
		{-2, -1, 1, 4, 2},
		{0, 10, 0, 10, 3},
		{5, 6, 5.5, 5.7, 0.25},
	}
	for _, c := range cases {
		got := SqExpDoubleIntegral(c.a, c.b, c.c, c.d, c.z)
		want := numericDoubleIntegral(c.a, c.b, c.c, c.d, c.z, 400)
		if math.Abs(got-want) > 1e-3*math.Max(1, want) {
			t.Errorf("integral(%v)=%.6f want %.6f", c, got, want)
		}
	}
}

// boundedRanges maps an arbitrary quick-generated seed to well-formed
// integration ranges within [-span, span] and a positive length-scale.
func boundedRanges(seed int64, span float64) (a, b, c, d, z float64) {
	r := rand.New(rand.NewSource(seed))
	a = (r.Float64()*2 - 1) * span
	b = a + r.Float64()*span
	c = (r.Float64()*2 - 1) * span
	d = c + r.Float64()*span
	z = 0.1 + r.Float64()*span
	return
}

func TestSqExpDoubleIntegralSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		a, b, c, d, z := boundedRanges(seed, 10)
		// Swapping the two ranges must not change the value (kernel is
		// symmetric in its arguments).
		x := SqExpDoubleIntegral(a, b, c, d, z)
		y := SqExpDoubleIntegral(c, d, a, b, z)
		return math.Abs(x-y) <= 1e-9*(1+math.Abs(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSqExpDoubleIntegralBounds(t *testing.T) {
	f := func(seed int64) bool {
		a, b, c, d, z := boundedRanges(seed, 20)
		v := SqExpDoubleIntegral(a, b, c, d, z)
		// 0 <= integral <= area (integrand in (0,1]).
		area := (b - a) * (d - c)
		return v >= 0 && v <= area*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSqExpMeanIntegralIdenticalRanges(t *testing.T) {
	// For identical point ranges the mean integral is exp(0)=1.
	if got := SqExpMeanIntegral(2, 2, 2, 2, 1); got != 1 {
		t.Fatalf("point mean integral = %v, want 1", got)
	}
	// Mean over identical intervals approaches 1 as z grows.
	if got := SqExpMeanIntegral(0, 1, 0, 1, 1e6); got < 0.999999 {
		t.Fatalf("wide-kernel mean = %v, want ~1", got)
	}
	// Mean is in (0,1].
	if got := SqExpMeanIntegral(0, 1, 3, 4, 0.5); got <= 0 || got > 1 {
		t.Fatalf("mean integral out of (0,1]: %v", got)
	}
}

func TestSqExpMeanIntegralDegenerateLine(t *testing.T) {
	// Line-vs-interval limit matches a numeric 1-D integral.
	x, c, d, z := 0.3, 0.0, 1.0, 0.7
	want := 0.0
	steps := 100000
	h := (d - c) / float64(steps)
	for j := 0; j < steps; j++ {
		y := c + (float64(j)+0.5)*h
		u := (x - y) / z
		want += math.Exp(-u*u) * h
	}
	want /= d - c
	got := SqExpMeanIntegral(x, x, c, d, z)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("line mean integral = %v, want %v", got, want)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963985},
		{0.995, 2.575829304},
		{0.95, 1.644853627},
		{0.025, -1.959963985},
		{0.0001, -3.719016485},
	}
	for _, c := range cases {
		got, err := NormalQuantile(c.p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("NormalQuantile(%v)=%v want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.001; p < 0.999; p += 0.013 {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if back := NormalCDF(z); math.Abs(back-p) > 1e-8 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestNormalQuantileRejectsBadInput(t *testing.T) {
	for _, p := range []float64{0, 1, -0.2, 1.5, math.NaN()} {
		if _, err := NormalQuantile(p); err == nil {
			t.Errorf("NormalQuantile(%v) should fail", p)
		}
	}
}

func TestConfidenceMultiplier(t *testing.T) {
	got, err := ConfidenceMultiplier(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.959963985) > 1e-6 {
		t.Fatalf("alpha_0.95 = %v", got)
	}
}

func TestMomentsAgainstClosedForm(t *testing.T) {
	var m Moments
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		m.Add(x)
	}
	if m.Count() != 8 || m.Mean() != 5 {
		t.Fatalf("mean=%v n=%v", m.Mean(), m.Count())
	}
	if math.Abs(m.Variance()-4) > 1e-12 {
		t.Fatalf("variance=%v want 4", m.Variance())
	}
	if math.Abs(m.SampleVariance()-32.0/7.0) > 1e-12 {
		t.Fatalf("sample variance=%v", m.SampleVariance())
	}
}

func TestMomentsMergeEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		var all Moments
		for _, x := range xs {
			all.Add(x)
		}
		cut := r.Intn(n + 1)
		var a, b Moments
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.Count() == all.Count() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMomentsStdErrShrinks(t *testing.T) {
	var m Moments
	r := rand.New(rand.NewSource(7))
	prev := math.Inf(1)
	for step := 0; step < 5; step++ {
		for i := 0; i < 1000; i++ {
			m.Add(r.NormFloat64())
		}
		se := m.StdErr()
		if se >= prev {
			t.Fatalf("stderr did not shrink: %v -> %v", prev, se)
		}
		prev = se
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0=%v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1=%v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median=%v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25=%v", got)
	}
	// Input must stay untouched.
	if xs[0] != 3 || xs[4] != 4 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileLargeMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		got := Quantile(xs, q)
		// Oracle: count of values below must bracket q.
		below := 0
		for _, x := range xs {
			if x < got {
				below++
			}
		}
		frac := float64(below) / float64(len(xs))
		if math.Abs(frac-q) > 0.01 {
			t.Fatalf("q=%v -> below frac %v", q, frac)
		}
	}
}
