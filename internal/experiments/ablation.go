package experiments

import (
	"math"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
)

func init() { register("ablation", AblationDesignChoices) }

// AblationDesignChoices is not a paper artifact: it isolates the
// contribution of the implementation's design choices on the Customer1-like
// workload — (a) Appendix B's model validation, (b) the finite-population
// nugget this reproduction adds at reduced scale (ScalarEstimate.PopErr),
// each ablated independently against the full configuration. Reported per
// variant: actual-error reduction over NoLearn at a quarter-scan, and the
// fraction of answers whose actual error stayed inside the 95% bound.
func AblationDesignChoices(o Options) (*Report, error) {
	r := &Report{
		ID:      "ablation",
		Title:   "Ablation of validation and the finite-population nugget",
		Columns: []string{"Variant", "Error reduction", "Bound coverage"},
	}
	f, err := buildFixture(o, table4Config{dataset: "customer1", cached: true})
	if err != nil {
		return nil, err
	}
	_, _, train, test := sizing(o)

	variants := []struct {
		name       string
		cfg        core.Config
		dropPopErr bool
	}{
		{"full", core.Config{}, false},
		{"no validation", core.Config{DisableValidation: true}, false},
		{"no nugget", core.Config{}, true},
		{"no validation, no nugget", core.Config{DisableValidation: true}, true},
	}

	for _, variant := range variants {
		v := core.New(f.table, variant.cfg)
		// Training pass.
		for _, sql := range f.sqls[:train] {
			snips, err := snippetsOf(f.engine, sql, v.Config().Nmax)
			if err != nil {
				return nil, err
			}
			upd := f.engine.RunToCompletion(snips)
			for i, sn := range snips {
				if upd.Valid[i] {
					v.Record(sn, strip(upd.Estimates[i], variant.dropPopErr))
				}
			}
		}
		if err := v.Train(); err != nil {
			return nil, err
		}
		// Measurement pass at a quarter of the sample scan.
		var rawErr, impErr float64
		covered, n := 0, 0
		for _, sql := range f.sqls[train:min(train+test, len(f.sqls))] {
			snips, err := snippetsOf(f.engine, sql, v.Config().Nmax)
			if err != nil {
				return nil, err
			}
			view := f.engine.Acquire()
			_, end := view.Sample.BatchBounds(view.Sample.Batches() / 4)
			upd := view.EvalPrefix(snips, end)
			for i, sn := range snips {
				if !upd.Valid[i] {
					continue
				}
				exact := f.engine.Exact(sn)
				den := math.Abs(exact)
				if den < 1e-9 || (sn.Kind == query.FreqAgg && exact < minExactFreq) {
					continue
				}
				raw := strip(aqp.Sanitize(upd.Estimates[i]), variant.dropPopErr)
				inf := v.Infer(sn, raw)
				rawErr += math.Abs(raw.Value-exact) / den
				impErr += math.Abs(inf.Answer-exact) / den
				if math.Abs(inf.Answer-exact) <= core.Alpha95*inf.Err {
					covered++
				}
				n++
			}
		}
		if n == 0 {
			continue
		}
		r.Add(variant.name,
			fmtPct(reduction(rawErr/float64(n), impErr/float64(n))),
			fmtPct(float64(covered)/float64(n)))
	}
	r.Note("expected: the full configuration keeps coverage near 95%%; dropping the nugget tightens bounds below what reduced-scale exact answers support; dropping validation admits confidently-wrong model answers; reductions stay comparable across variants")
	return r, nil
}

func strip(est query.ScalarEstimate, dropPopErr bool) query.ScalarEstimate {
	if dropPopErr {
		est.PopErr = 0
	}
	return est
}
