package experiments

import (
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/workload"
)

func init() { register("figure7", Figure7ParameterLearning) }

// Figure7ParameterLearning reproduces Appendix A.2's Figure 7: datasets are
// generated from *known* correlation parameters; Verdict estimates the
// parameters from 20, 50 and 100 past snippets; estimated values should
// track the true values, more closely with more snippets.
func Figure7ParameterLearning(o Options) (*Report, error) {
	r := &Report{
		ID:      "figure7",
		Title:   "Correlation parameter learning accuracy",
		Columns: []string{"True ℓ", "Past snippets", "Estimated ℓ", "Ratio"},
	}
	trueElls := []float64{5, 10, 20, 40}
	counts := []int{20, 50, 100}
	if o.Scale == Small {
		trueElls = []float64{10, 20}
		counts = []int{20, 50}
	}
	for _, ell := range trueElls {
		tb, _, err := workload.GeneratePlanted1D(workload.Planted1DSpec{
			Rows: 8000, Ell: ell, Sigma2: 9, NoiseStd: 0.05,
			Domain: 100, Seed: o.Seed + int64(ell*7),
		})
		if err != nil {
			return nil, err
		}
		xcol, _ := tb.Schema().Lookup("x")
		for _, n := range counts {
			rng := randx.New(o.Seed + int64(ell) + int64(n))
			v := core.New(tb, core.Config{LearnCap: n})
			for i := 0; i < n; i++ {
				lo := rng.Uniform(0, 94)
				hi := lo + rng.Uniform(2, 6)
				exact := exactAvgOn(tb, lo, hi)
				v.Record(avgSnippetOn(tb, lo, hi),
					query.ScalarEstimate{Value: exact + rng.Normal(0, 0.05), StdErr: 0.05})
			}
			if err := v.Train(); err != nil {
				return nil, err
			}
			p, ok := v.Params(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"})
			if !ok {
				continue
			}
			est := p.Ells[xcol]
			r.Add(fmtF(ell), itoa(n), fmtF(est), fmtF(est/ell))
		}
	}
	r.Note("expected shape (paper Fig. 7): estimated parameters consistent with true values (ratio near 1), tighter with more past snippets")
	return r, nil
}
