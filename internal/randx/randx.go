// Package randx provides the seeded random-variate generators used by the
// data and workload generators: uniform, Gaussian, log-normal and power-law
// (Zipf-like) draws, permutations, and one-dimensional smooth random fields
// with a planted squared-exponential correlation length. The fields are what
// lets the experiment harness generate datasets whose *true* inter-tuple
// correlation parameters are known (Figures 7 and 9 of the paper).
//
// All generators are deterministic given their seed, which keeps every
// experiment in this repository reproducible.
package randx

import (
	"math"
	"math/rand"
)

// Source is a seeded generator wrapping math/rand with the distribution
// helpers this repository needs. It is not safe for concurrent use; create
// one Source per goroutine.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded deterministically.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child source. Distinct ids yield streams that
// are independent for practical purposes, letting callers split one seed
// across tables, columns and query generators without correlation.
func (s *Source) Fork(id int64) *Source {
	const mix = int64(0x5851F42D4C957F2D) // Knuth/PCG multiplier, fits int64
	return New(s.r.Int63() ^ (id * mix))
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform draw in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + s.r.Float64()*(hi-lo)
}

// Intn returns a uniform integer in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)); the heavy-tailed "skewed"
// distribution used in Section 8.6's data-distribution sweep.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns an exponential draw with the given rate.
func (s *Source) Exponential(rate float64) float64 {
	return s.r.ExpFloat64() / rate
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle permutes the given slice length with the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// PowerLawIndex draws an index in [0,n) where index i has relative weight
// decay^i — the access pattern Section 8.6 uses for selection-predicate
// columns ("the access probability of the remaining columns decayed
// according to the power-law distribution", halving per column for
// decay=0.5).
func (s *Source) PowerLawIndex(n int, decay float64) int {
	if n <= 0 {
		panic("randx: PowerLawIndex with n<=0")
	}
	if decay <= 0 || decay >= 1 {
		return s.r.Intn(n)
	}
	// CDF of the truncated geometric distribution.
	total := (1 - math.Pow(decay, float64(n))) / (1 - decay)
	u := s.r.Float64() * total
	cum := 0.0
	w := 1.0
	for i := 0; i < n; i++ {
		cum += w
		if u < cum {
			return i
		}
		w *= decay
	}
	return n - 1
}

// HeadTailIndex models Section 8.6's "frequently accessed columns" pattern:
// the first head columns share uniform probability mass headMass in total,
// and the remaining columns receive geometrically decaying probability.
func (s *Source) HeadTailIndex(n, head int, decay float64) int {
	if head >= n {
		return s.r.Intn(n)
	}
	// The head columns have equal weight 1; tail column i (0-based within
	// the tail) has weight decay^(i+1).
	tailTotal := decay * (1 - math.Pow(decay, float64(n-head))) / (1 - decay)
	total := float64(head) + tailTotal
	u := s.r.Float64() * total
	if u < float64(head) {
		return int(u)
	}
	u -= float64(head)
	w := decay
	for i := head; i < n; i++ {
		if u < w {
			return i
		}
		u -= w
		w *= decay
	}
	return n - 1
}

// SmoothFieldAt evaluates a reusable random-Fourier-feature field at
// arbitrary points, for multi-column datasets that need consistent values.
type SmoothFieldAt struct {
	ws, phases []float64
	amp, mean  float64
}

// NewSmoothField constructs a field function with planted length-scale ell
// (paper kernel convention exp(-d²/ℓ²)) and variance sigma2 around mean.
func (s *Source) NewSmoothField(ell, sigma2, mean float64) *SmoothFieldAt {
	const features = 128
	f := &SmoothFieldAt{
		ws:     make([]float64, features),
		phases: make([]float64, features),
		amp:    math.Sqrt(2 * sigma2 / float64(features)),
		mean:   mean,
	}
	freqStd := math.Sqrt2 / ell
	for i := range f.ws {
		f.ws[i] = s.r.NormFloat64() * freqStd
		f.phases[i] = s.Uniform(0, 2*math.Pi)
	}
	return f
}

// At evaluates the field at x.
func (f *SmoothFieldAt) At(x float64) float64 {
	v := 0.0
	for i, w := range f.ws {
		v += math.Cos(w*x + f.phases[i])
	}
	return f.mean + f.amp*v
}
