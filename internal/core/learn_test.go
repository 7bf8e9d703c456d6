package core

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
	"repro/internal/workload"
)

// learnPerPair is the reference learner: learn as it was before the factor
// cache, every candidate's Σ rebuilt pair by pair through
// kernel.Covariance. TestLearnCacheEqualsPerPair holds learn to its bits.
func learnPerPair(m *model) {
	if m.paramsFixed || len(m.entries) < 3 {
		return
	}
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
			lx := math.Exp(clamp(x[i], math.Log(widths[i]*1e-3), math.Log(widths[i]*1e3)))
			p.Ells[col] = lx
		}
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
		start[i] = math.Log(widths[i])
		lo[i] = math.Log(widths[i] * 1e-2)
		hi[i] = math.Log(widths[i] * 1e2)
	}
	res := optimize.CoordinateDescent(negLogLik, start, lo, hi, 2, 25)
	if nm := optimize.NelderMead(negLogLik, res.X, 80); nm.F < res.F {
		res = nm
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
		m.chol = nil
	}
}

// learnSnippet draws a snippet of the given kind over tb: each numeric
// dimension left unconstrained (the domain) or constrained to a quantized
// range, so ranges repeat across snippets; each categorical one
// unconstrained, one or two codes, or now and then the empty set.
func learnSnippet(tb *storage.Table, kind query.AggKind, rng *randx.Source) *query.Snippet {
	sc := tb.Schema()
	g := query.NewRegion(sc)
	for _, col := range sc.DimensionCols() {
		if sc.Col(col).Kind == storage.Numeric {
			if rng.Intn(3) == 0 {
				continue
			}
			lo, hi := tb.Domain(col)
			w := hi - lo
			a := lo + math.Round(rng.Uniform(0, 0.8)*8)/8*w
			g.ConstrainNum(col, query.NumRange{Lo: a, Hi: a + w*math.Round(rng.Uniform(0.05, 0.3)*16)/16})
			continue
		}
		dict := tb.DictOf(col).Size()
		switch k := rng.Intn(12); {
		case k == 0:
			g.ConstrainCat(col, query.CatSet{Codes: []int32{}})
		case k < 6:
			c := int32(rng.Intn(dict))
			codes := []int32{c}
			if k%2 == 0 && int(c)+1 < dict {
				codes = append(codes, c+1)
			}
			g.ConstrainCat(col, query.CatSet{Codes: codes})
		}
	}
	sn := &query.Snippet{Kind: kind, Region: g, Table: tb}
	if kind == query.AvgAgg {
		m := 0
		for sc.Col(m).Role != storage.Measure {
			m++
		}
		sn.MeasureKey = sc.Col(m).Name
		sn.Measure = func(t *storage.Table, row int) float64 { return t.NumAt(row, m) }
	}
	return sn
}

// learnAnswer is a raw answer with a smooth trend over the first numeric
// dimension's range: AVG values, FREQ counts proportional to the region.
func learnAnswer(sn *query.Snippet, rng *randx.Source) query.ScalarEstimate {
	col := sn.Table.Schema().DimensionCols()[0]
	r := sn.Region.NumRangeOf(col, sn.Table)
	trend := math.Sin((r.Lo + r.Hi) / 60)
	if sn.Kind == query.FreqAgg {
		v := kernel.RegionMeasure(sn) * (1 + 0.3*trend)
		be := 0.05*v + 0.5
		return query.ScalarEstimate{Value: v + rng.Normal(0, be), StdErr: be}
	}
	return query.ScalarEstimate{Value: 3*trend + rng.Normal(0, 0.2), StdErr: 0.2}
}

// TestLearnCacheEqualsPerPair is the oracle for the factor cache: on each
// fixture, learn and the per-pair reference must fit bit-identical σ² and
// length-scales, the learning set's cached Gram under them must equal
// kernel.UnitCovariance pair by pair, and so must the model's post-train
// Gram triangle. The fixtures cover AVG and FREQ, 3 and 1 numeric
// dimensions beside categorical ones, and learning sets whose entries are
// bound to two tables with different domains and dictionaries (records on
// both sides of a sample rebuild), where a pair resolves both regions
// against its first snippet's table.
func TestLearnCacheEqualsPerPair(t *testing.T) {
	events, err := workload.GenerateCustomer1(3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	small := oracleTable(t, 7)
	// Rebuilt tables: a different sample, so a different observed domain,
	// one with a fourth category and one with a widened domain. (An AVG
	// model whose tables disagree on a dictionary size has no positive
	// definite Σ to learn from: an unconstrained set's self-factor is 1/4
	// on one side and its cross factor 1/3 on the other.)
	rebuilt := oracleTable(t, 8)
	appendOracleRow(t, rebuilt, 50, "d")
	widened := oracleTable(t, 9)
	appendOracleRow(t, widened, 130, "a")

	fixtures := []struct {
		name   string
		kind   query.AggKind
		tables []*storage.Table
	}{
		{"avg/3num+4cat", query.AvgAgg, []*storage.Table{events}},
		{"freq/3num+4cat", query.FreqAgg, []*storage.Table{events}},
		{"avg/1num+1cat", query.AvgAgg, []*storage.Table{small}},
		{"freq/1num+1cat/two-tables", query.FreqAgg, []*storage.Table{small, rebuilt}},
		{"avg/1num+1cat/two-tables", query.AvgAgg, []*storage.Table{widened, small}},
	}
	for fi, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := randx.New(int64(40 + fi))
			v := New(fx.tables[0], Config{})
			var id query.FuncID
			for k := 0; k < 48; k++ {
				sn := learnSnippet(fx.tables[k%len(fx.tables)], fx.kind, rng)
				id = sn.Func()
				v.Record(sn, learnAnswer(sn, rng))
			}
			m := v.modelOf(id)
			before := m.params.Clone()

			learnPerPair(m)
			want := m.params.Clone()
			m.params = before.Clone()
			m.learn()
			got := m.params.Clone()

			moved := want.Sigma2 != before.Sigma2
			if math.Float64bits(got.Sigma2) != math.Float64bits(want.Sigma2) {
				t.Fatalf("sigma2 %v, per-pair %v", got.Sigma2, want.Sigma2)
			}
			if len(got.Ells) != len(want.Ells) {
				t.Fatalf("ells %v, per-pair %v", got.Ells, want.Ells)
			}
			for col, w := range want.Ells {
				if math.Float64bits(got.Ells[col]) != math.Float64bits(w) {
					t.Fatalf("ell[%d] %v, per-pair %v", col, got.Ells[col], w)
				}
				moved = moved || w != before.Ells[col]
			}
			if !moved {
				t.Fatal("learning left the parameters where they started: the fixture checks nothing")
			}

			ents := m.byRecency()
			lik := newLikelihood(ents, m.priorMean())
			lik.setElls(got.Ells)
			for i := range ents {
				for j := 0; j <= i; j++ {
					w := kernel.UnitCovariance(ents[j].sn, ents[i].sn, want.Ells)
					if g := lik.unit[tri(i, j)]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("learning-set gram (%d,%d) = %v, per-pair %v", i, j, g, w)
					}
				}
			}

			m.mutated()
			if err := m.rebuild(); err != nil {
				t.Fatal(err)
			}
			for i := range m.entries {
				for j := 0; j <= i; j++ {
					w := kernel.UnitCovariance(m.entries[j].sn, m.entries[i].sn, want.Ells)
					if g := m.gram[tri(i, j)]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("post-train gram (%d,%d) = %v, per-pair %v", i, j, g, w)
					}
				}
			}
		})
	}
}
