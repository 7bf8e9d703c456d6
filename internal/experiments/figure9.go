package experiments

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/workload"
)

func init() { register("figure9", Figure9ModelValidation) }

// Figure9ModelValidation reproduces Appendix B.2's Figure 9: Verdict's
// correlation parameters are deliberately set to scaled versions of the
// true planted parameters (0.1×–10×); the ratio of actual error to the
// reported error bound is measured with and without model validation. For
// correct bounds the 95th percentile of the ratio must stay at or below 1;
// without validation it blows past 1 for badly mis-scaled parameters.
func Figure9ModelValidation(o Options) (*Report, error) {
	r := &Report{
		ID:    "figure9",
		Title: "Effect of model validation under mis-scaled correlation parameters",
		Columns: []string{"Param scale", "p95 ratio (no validation)",
			"p95 ratio (validation)", "median (no val.)", "median (val.)"},
	}
	const trueEll, sigma2 = 15.0, 9.0
	tb, _, err := workload.GeneratePlanted1D(workload.Planted1DSpec{
		Rows: 10000, Ell: trueEll, Sigma2: sigma2, NoiseStd: 0.1,
		Domain: 100, Seed: o.Seed + 91,
	})
	if err != nil {
		return nil, err
	}
	xcol, _ := tb.Schema().Lookup("x")
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}
	scales := []float64{0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0}
	trials := 60
	if o.Scale == Small {
		scales = []float64{0.1, 1.0, 10.0}
		trials = 30
	}

	for _, scale := range scales {
		params := kernel.Params{Sigma2: sigma2, Ells: map[int]float64{xcol: trueEll * scale}}
		ratios := map[bool][]float64{}
		for _, validate := range []bool{false, true} {
			cfg := core.Config{DisableValidation: !validate}
			v := core.New(tb, cfg)
			v.SetParams(id, params)
			rng := randx.New(o.Seed + 92)
			// Past snippets: accurate answers.
			for i := 0; i < 40; i++ {
				lo := rng.Uniform(0, 90)
				hi := lo + rng.Uniform(3, 10)
				exact := exactAvgOn(tb, lo, hi)
				v.Record(avgSnippetOn(tb, lo, hi),
					query.ScalarEstimate{Value: exact + rng.Normal(0, 0.05), StdErr: 0.05})
			}
			// Test snippets: noisy raw answers; ratio of actual error to the
			// reported bound.
			for i := 0; i < trials; i++ {
				lo := rng.Uniform(0, 90)
				hi := lo + rng.Uniform(3, 10)
				exact := exactAvgOn(tb, lo, hi)
				// Raw errors comparable to the past snippets' accuracy: the
				// validation likely-region is then tight enough to catch a
				// mis-scaled model (with huge raw errors validation is
				// vacuous and no system could reject anything).
				raw := query.ScalarEstimate{Value: exact + rng.Normal(0, 0.05), StdErr: 0.05}
				inf := v.Infer(avgSnippetOn(tb, lo, hi), raw)
				bound := core.Alpha95 * inf.Err
				if bound <= 0 {
					continue
				}
				actual := abs(inf.Answer - exact)
				ratios[validate] = append(ratios[validate], actual/bound)
			}
		}
		r.Add(fmtF(scale)+"×",
			fmtF(mathx.Quantile(ratios[false], 0.95)),
			fmtF(mathx.Quantile(ratios[true], 0.95)),
			fmtF(mathx.Quantile(ratios[false], 0.50)),
			fmtF(mathx.Quantile(ratios[true], 0.50)))
	}
	r.Note("expected shape (paper Fig. 9): without validation the p95 ratio exceeds 1 for badly mis-scaled parameters; with validation it stays ≈ ≤1 at every scale")
	return r, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
