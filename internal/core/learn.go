package core

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/query"
	"repro/internal/storage"
)

// learn fits the correlation parameters l_{g,1..l} by maximizing the
// Gaussian log-likelihood of past raw answers (Appendix A, Eq. 13):
//
//	log Pr(θ_past | Σ_n) = −½ θᵀΣ_n⁻¹θ − ½ log|Σ_n| − n/2·log 2π
//
// over log-length-scales (positivity by construction), with σ²_g estimated
// analytically from the observations (Appendix F.3) and the paper's
// starting point l_{g,k} = max(A_k) − min(A_k). Every candidate is
// evaluated against one kernel.Factors of the learning set, so it costs the
// integrals of the dimensions whose ℓ it moved, not n(n+1)/2 covariances.
func (m *model) learn() {
	if m.paramsFixed || len(m.entries) < 3 {
		return
	}
	// Use the most recent LearnCap snippets, in recency order (likelihood
	// evaluation is O(n³); inference still uses the full synopsis).
	ents := m.byRecency()
	if len(ents) > m.cfg.LearnCap {
		ents = ents[len(ents)-m.cfg.LearnCap:]
	}

	t := ents[0].sn.Table
	cols := numericDimCols(t)
	if len(cols) == 0 {
		m.params.Sigma2 = m.sigma2Analytic(m.params)
		m.chol = nil
		return
	}

	mu := m.priorMean()
	lik := newLikelihood(ents, mu)

	widths := make([]float64, len(cols))
	for i, col := range cols {
		lo, hi := t.Domain(col)
		w := hi - lo
		if w <= 0 {
			w = 1
		}
		widths[i] = w
	}
	// ellsAt maps a point of the search to length-scales, clamping each
	// log-length-scale to a sane window around the domain width to keep
	// the integrals well-conditioned.
	ellsAt := func(x []float64) map[int]float64 {
		ells := make(map[int]float64, len(cols))
		for i, col := range cols {
			ells[col] = math.Exp(clamp(x[i], math.Log(widths[i]*1e-3), math.Log(widths[i]*1e3)))
		}
		return ells
	}
	// σ² is tied to the candidate length-scales by moment matching
	// (Appendix F.3's analytic estimate).
	negLogLik := func(x []float64) float64 {
		lik.setElls(ellsAt(x))
		return lik.negLog(lik.sigma2())
	}

	start := make([]float64, len(cols))
	lo := make([]float64, len(cols))
	hi := make([]float64, len(cols))
	for i := range start {
		start[i] = math.Log(widths[i]) // paper's l = max−min starting point
		lo[i] = math.Log(widths[i] * 1e-2)
		hi[i] = math.Log(widths[i] * 1e2)
	}
	// Coordinate-wise golden-section identifies each dimension's
	// length-scale reliably; a short simplex pass started from its optimum
	// then polishes joint interactions (the paper's fminunc plays the same
	// local-refinement role). No random restarts are added.
	res := optimize.CoordinateDescent(negLogLik, start, lo, hi, 2, 25)
	if nm := optimize.NelderMead(negLogLik, res.X, 80); nm.F < res.F {
		res = nm
	}
	if math.IsInf(res.F, 1) {
		return
	}
	p := kernel.Params{Ells: ellsAt(res.X)}
	lik.setElls(p.Ells)
	p.Sigma2 = lik.sigma2()
	if p.Validate() == nil {
		m.params = p
		m.chol = nil // Σ changed; rebuild lazily
	}
}

func numericDimCols(t *storage.Table) []int {
	var out []int
	for _, col := range t.Schema().DimensionCols() {
		if t.Schema().Col(col).Kind == storage.Numeric {
			out = append(out, col)
		}
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// likelihood evaluates Eq. 13 over a fixed list of entries:
//
//	−log Pr(θ | Σ) = ½ (θ−m)ᵀΣ⁻¹(θ−m) + ½ log|Σ| + n/2·log 2π,
//	Σ = σ²·K + diag(β²)
//
// K is the unit Gram matrix. One kernel.Factors serves every length-scale
// candidate, so a candidate costs the integrals of the dimensions whose ℓ
// it moved plus one O(n³) factorization.
type likelihood struct {
	ents  []entry
	mu    float64
	resid []float64 // θ_i − prior mean of snippet i
	fac   *kernel.Factors
	unit  []float64 // K's packed lower triangle under the last setElls
}

func newLikelihood(ents []entry, mu float64) *likelihood {
	snips := make([]*query.Snippet, len(ents))
	resid := make([]float64, len(ents))
	for i, e := range ents {
		snips[i] = e.sn
		resid[i] = e.theta - kernel.PriorMean(e.sn, mu)
	}
	return &likelihood{
		ents:  ents,
		mu:    mu,
		resid: resid,
		fac:   kernel.NewFactors(snips),
		unit:  make([]float64, tri(len(ents), 0)),
	}
}

// setElls evaluates K under the given length-scales.
func (l *likelihood) setElls(ells map[int]float64) { l.fac.Gram(ells, l.unit) }

// sigma2 is the moment-matching σ² (sigma2For) under the current K.
func (l *likelihood) sigma2() float64 {
	return sigma2From(l.ents, l.mu, func(i int) float64 { return l.unit[tri(i, i)] })
}

// negLog is −log L at σ² and the current K; +Inf when Σ is not positive
// definite.
func (l *likelihood) negLog(sigma2 float64) float64 {
	n := len(l.ents)
	s := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			c := sigma2 * l.unit[tri(i, j)]
			if i == j {
				c += l.ents[i].beta * l.ents[i].beta
			}
			s.Set(i, j, c)
			s.Set(j, i, c)
		}
	}
	chol, err := linalg.NewCholesky(s)
	if err != nil {
		return math.Inf(1)
	}
	qf, err := chol.QuadForm(l.resid)
	if err != nil {
		return math.Inf(1)
	}
	return 0.5*qf + 0.5*chol.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
}
