package core

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/storage"
)

// learn fits the correlation parameters l_{g,1..l} by maximizing the
// Gaussian log-likelihood of past raw answers (Appendix A, Eq. 13):
//
//	log Pr(θ_past | Σ_n) = −½ θᵀΣ_n⁻¹θ − ½ log|Σ_n| − n/2·log 2π
//
// over log-length-scales (positivity by construction), with σ²_g estimated
// analytically from the observations (Appendix F.3) and the paper's
// starting point l_{g,k} = max(A_k) − min(A_k). Multi-start keeps the
// non-convex surface from trapping the fit in a poor local optimum.
func (m *model) learn(seed int64) {
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

	mu := m.mu()

	// Centered raw answers under the prior mean.
	resid := make([]float64, len(ents))
	for i, e := range ents {
		resid[i] = e.theta - kernel.PriorMean(e.sn, mu)
	}

	widths := make([]float64, len(cols))
	for i, col := range cols {
		lo, hi := t.Domain(col)
		w := hi - lo
		if w <= 0 {
			w = 1
		}
		widths[i] = w
	}

	negLogLik := func(x []float64) float64 {
		p := kernel.Params{Sigma2: 1, Ells: make(map[int]float64, len(cols))}
		for i, col := range cols {
			// Clamp log-length-scales to a sane window around the domain
			// width to keep the integrals well-conditioned.
			lx := math.Exp(clamp(x[i], math.Log(widths[i]*1e-3), math.Log(widths[i]*1e3)))
			p.Ells[col] = lx
		}
		// σ² is tied to the candidate length-scales by moment matching
		// (Appendix F.3's analytic estimate).
		p.Sigma2 = sigma2For(ents, mu, p)
		n := len(ents)
		s := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				c := kernel.Covariance(ents[i].sn, ents[j].sn, p)
				if i == j {
					c += ents[i].beta * ents[i].beta
				}
				s.Set(i, j, c)
				s.Set(j, i, c)
			}
		}
		chol, err := linalg.NewCholesky(s)
		if err != nil {
			return math.Inf(1)
		}
		qf, err := chol.QuadForm(resid)
		if err != nil {
			return math.Inf(1)
		}
		return 0.5*qf + 0.5*chol.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
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
	// length-scale reliably; a short simplex pass then polishes joint
	// interactions (the paper's fminunc plays the same local-refinement
	// role). MultiStarts extra restarts guard against poor basins.
	res := optimize.CoordinateDescent(negLogLik, start, lo, hi, 2, 25)
	if m.cfg.MultiStarts > 0 {
		if nm, err := optimize.MultiStart(negLogLik, [][]float64{res.X}, 0, seed, optimize.Options{MaxIter: 80}); err == nil && nm.F < res.F {
			res = nm
		}
	}
	if math.IsInf(res.F, 1) {
		return
	}
	p := kernel.Params{Sigma2: 1, Ells: make(map[int]float64, len(cols))}
	for i, col := range cols {
		p.Ells[col] = math.Exp(clamp(res.X[i], math.Log(widths[i]*1e-3), math.Log(widths[i]*1e3)))
	}
	p.Sigma2 = sigma2For(ents, mu, p)
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

// LogLikelihood exposes Eq. 13 for the given parameters over the model's
// current synopsis — used by tests and the parameter-learning experiment
// (Figure 7) to compare planted against estimated parameters.
func (m *model) logLikelihood(p kernel.Params) float64 {
	n := len(m.entries)
	if n == 0 {
		return 0
	}
	mu := m.mu()
	resid := make([]float64, n)
	s := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		resid[i] = m.entries[i].theta - kernel.PriorMean(m.entries[i].sn, mu)
		for j := i; j < n; j++ {
			c := kernel.Covariance(m.entries[i].sn, m.entries[j].sn, p)
			if i == j {
				c += m.entries[i].beta * m.entries[i].beta
			}
			s.Set(i, j, c)
			s.Set(j, i, c)
		}
	}
	chol, err := linalg.NewCholesky(s)
	if err != nil {
		return math.Inf(-1)
	}
	qf, err := chol.QuadForm(resid)
	if err != nil {
		return math.Inf(-1)
	}
	return -0.5*qf - 0.5*chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
}
