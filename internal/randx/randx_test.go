package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	s := New(1)
	a := s.Fork(1)
	b := s.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams look identical (%d collisions)", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(4)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean=%v", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("variance=%v", variance)
	}
}

func TestLogNormalPositiveAndSkewed(t *testing.T) {
	s := New(5)
	var m, med []float64 = nil, nil
	for i := 0; i < 10000; i++ {
		v := s.LogNormal(0, 1)
		if v <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
		m = append(m, v)
		med = append(med, v)
	}
	mean := 0.0
	for _, v := range m {
		mean += v
	}
	mean /= float64(len(m))
	// Log-normal mean exp(1/2)≈1.65 exceeds median 1 (right skew).
	count := 0
	for _, v := range med {
		if v < mean {
			count++
		}
	}
	if frac := float64(count) / float64(len(med)); frac < 0.6 {
		t.Fatalf("distribution does not look right-skewed: frac below mean = %v", frac)
	}
}

func TestPowerLawIndexDistribution(t *testing.T) {
	s := New(6)
	counts := make([]int, 8)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.PowerLawIndex(8, 0.5)]++
	}
	// Each successive index should get roughly half the mass of the prior.
	for i := 1; i < 5; i++ {
		ratio := float64(counts[i]) / float64(counts[i-1])
		if ratio < 0.4 || ratio > 0.6 {
			t.Fatalf("decay ratio at %d = %v, want ~0.5 (counts=%v)", i, ratio, counts)
		}
	}
}

func TestPowerLawIndexInRange(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		n := 1 + s.Intn(50)
		idx := s.PowerLawIndex(n, 0.5)
		return idx >= 0 && idx < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadTailIndex(t *testing.T) {
	s := New(7)
	const n, head = 20, 4
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.HeadTailIndex(n, head, 0.5)]++
	}
	// Head columns should have (roughly) equal counts.
	for i := 1; i < head; i++ {
		ratio := float64(counts[i]) / float64(counts[0])
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("head columns unequal: %v", counts[:head])
		}
	}
	// First tail column should have about half the mass of a head column.
	ratio := float64(counts[head]) / float64(counts[0])
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("tail start ratio = %v", ratio)
	}
	// Tail decays.
	if counts[head+1] >= counts[head] || counts[head+2] >= counts[head+1] {
		t.Fatalf("tail not decaying: %v", counts[head:head+4])
	}
}

func TestHeadTailIndexDegenerate(t *testing.T) {
	s := New(8)
	for i := 0; i < 100; i++ {
		idx := s.HeadTailIndex(5, 10, 0.5) // head >= n falls back to uniform
		if idx < 0 || idx >= 5 {
			t.Fatalf("index out of range: %d", idx)
		}
	}
}

// pearson computes the Pearson correlation of two equal-length samples.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestSmoothFieldPlantedLengthScale(t *testing.T) {
	// Ensemble estimator: across many independent fields, the correlation
	// between f(x0) and f(x0+d) must approximate the planted kernel
	// exp(-d²/ℓ²). (A single-field windowed estimator is biased downward at
	// large lags, so we sample the ensemble instead.)
	const ell = 10.0
	const reps = 4000
	dists := []float64{0.5, 5, 10, 20}
	xs := make([][]float64, len(dists))
	ys := make([][]float64, len(dists))
	master := New(2024)
	for rep := 0; rep < reps; rep++ {
		s := master.Fork(int64(rep))
		f := s.NewSmoothField(ell, 1.0, 0.0)
		x0 := s.Uniform(0, 50)
		v0 := f.At(x0)
		for i, d := range dists {
			xs[i] = append(xs[i], v0)
			ys[i] = append(ys[i], f.At(x0+d))
		}
	}
	for i, d := range dists {
		want := math.Exp(-d * d / (ell * ell))
		got := pearson(xs[i], ys[i])
		if math.Abs(got-want) > 0.06 {
			t.Errorf("corr at distance %v = %v, want %v", d, got, want)
		}
	}
}

func TestSmoothFieldAtConsistency(t *testing.T) {
	s := New(9)
	f := s.NewSmoothField(5, 2, 1)
	// Same x must give same value; nearby x must give nearby values.
	a, b := f.At(3.0), f.At(3.0)
	if a != b {
		t.Fatal("field not deterministic")
	}
	if math.Abs(f.At(3.0)-f.At(3.0001)) > 0.01 {
		t.Fatal("field not smooth at small distances")
	}
}

func TestSmoothFieldVariance(t *testing.T) {
	const sigma2 = 4.0
	var sum, sumsq float64
	const samples = 2000
	const reps = 20
	n := 0
	for rep := 0; rep < reps; rep++ {
		s := New(int64(1000 + rep))
		f := s.NewSmoothField(1.0, sigma2, 0)
		for i := 0; i < samples; i++ {
			v := f.At(float64(i) * 0.37)
			sum += v
			sumsq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(variance-sigma2) > 0.8 {
		t.Fatalf("field variance = %v, want ~%v", variance, sigma2)
	}
}
