// Package kernel implements the analytic inter-tuple covariance machinery
// of Section 4: the squared-exponential covariance function ρ_g (Eq. 9),
// its closed-form double integrals over snippet selection rectangles
// (Eq. 10, Appendix F.1), and the categorical overlap factors of Eq. 16
// (Appendix F.2). Together these turn a pair of query snippets into a
// covariance number in O(l) time — the property Lemma 2's complexity bound
// rests on — without ever enumerating tuples.
//
// Normalization convention (paper omits it "for simplicity"; Appendix F.3
// pins it down): for AVG-type snippets the answer is the *mean* of ν over
// the region, so each numeric dimension contributes the volume-normalized
// mean integral and each categorical dimension contributes
// |F_i∩F_j|/(|F_i|·|F_j|); for FREQ-type snippets ν is a density and the
// answer is the unnormalized integral, so dimensions contribute the plain
// double integral and the plain overlap count.
package kernel

import (
	"fmt"
	"math"

	"repro/internal/query"
	"repro/internal/storage"
)

// Params are the correlation parameters of one aggregate function g
// (§4.2): the kernel scale σ²_g and one length-scale l_{g,k} per numeric
// dimension attribute, keyed by column index.
type Params struct {
	Sigma2 float64
	Ells   map[int]float64
}

// Clone deep-copies the parameters.
func (p Params) Clone() Params {
	out := Params{Sigma2: p.Sigma2, Ells: make(map[int]float64, len(p.Ells))}
	for k, v := range p.Ells {
		out.Ells[k] = v
	}
	return out
}

// Scale returns a copy with every length-scale multiplied by f — the
// "artificial correlation parameter scale" knob of Appendix B.2's
// model-validation experiment (Figure 9).
func (p Params) Scale(f float64) Params {
	out := p.Clone()
	for k := range out.Ells {
		out.Ells[k] *= f
	}
	return out
}

// DefaultParams returns the paper's optimization starting point
// (Appendix A: l_{g,k} = max(A_k) − min(A_k)) with unit σ².
func DefaultParams(t *storage.Table) Params {
	p := Params{Sigma2: 1, Ells: make(map[int]float64)}
	for _, col := range t.Schema().DimensionCols() {
		if t.Schema().Col(col).Kind != storage.Numeric {
			continue
		}
		lo, hi := t.Domain(col)
		ell := hi - lo
		if ell <= 0 {
			ell = 1
		}
		p.Ells[col] = ell
	}
	return p
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if !(p.Sigma2 >= 0) || math.IsInf(p.Sigma2, 0) {
		return fmt.Errorf("kernel: bad sigma2 %v", p.Sigma2)
	}
	for col, ell := range p.Ells {
		if !(ell > 0) || math.IsInf(ell, 0) {
			return fmt.Errorf("kernel: bad length-scale %v for column %d", ell, col)
		}
	}
	return nil
}

// Covariance computes cov(θ̄_i, θ̄_j) between the exact answers of two
// snippets of the same aggregate function, per Eq. 10 extended with
// Eq. 16's categorical factors. Both snippets must be bound to the same
// base relation.
//
// σ² is a common factor and is multiplied last: the result is exactly
// p.Sigma2 * UnitCovariance(a, b, p.Ells), so a stored unit value scaled by
// the current σ² is bit-equal to a fresh call.
func Covariance(a, b *query.Snippet, p Params) float64 {
	return CovarianceMemo(a, b, p, nil)
}

// UnitCovariance is Covariance at σ² = 1: the part of a pair's covariance
// that depends only on the two regions, the length-scales and the table's
// domains and dictionary sizes.
func UnitCovariance(a, b *query.Snippet, ells map[int]float64) float64 {
	return unit(a, b, ells, nil)
}

// Variance is Covariance(s, s, p): the prior variance κ̄² of one snippet's
// exact answer.
func Variance(s *query.Snippet, p Params) float64 {
	return Covariance(s, s, p)
}

// RegionMeasure returns |F_i| as Appendix F.3 uses it to convert FREQ
// answers into densities: the numeric hyper-rectangle volume times the
// admitted categorical value count. Dimensions with zero width contribute
// a factor of 1 so degenerate regions stay usable.
func RegionMeasure(s *query.Snippet) float64 {
	t := s.Table
	v := 1.0
	for _, col := range t.Schema().DimensionCols() {
		def := t.Schema().Col(col)
		if def.Kind == storage.Numeric {
			w := s.Region.NumRangeOf(col, t).Width()
			if w > 0 {
				v *= w
			}
		} else {
			dict := t.DictOf(col).Size()
			if dict == 0 {
				continue
			}
			n := s.Region.CatSetOf(col).Size(dict)
			if n > 0 {
				v *= float64(n)
			}
		}
	}
	return v
}

// PriorMean converts the model-level mean statistic μ (a value mean for
// AVG, a density mean for FREQ; Appendix F.3) into the prior mean of one
// snippet's answer.
func PriorMean(s *query.Snippet, mu float64) float64 {
	if s.Kind == query.FreqAgg {
		return mu * RegionMeasure(s)
	}
	return mu
}

// Observation converts one snippet's raw answer into the model-level
// statistic used for estimating μ and σ² (Appendix F.3): the answer itself
// for AVG, the density θ/|F| for FREQ.
func Observation(s *query.Snippet, theta float64) float64 {
	if s.Kind == query.FreqAgg {
		m := RegionMeasure(s)
		if m == 0 {
			return 0
		}
		return theta / m
	}
	return theta
}
