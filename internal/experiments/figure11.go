package experiments

import (
	"math"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
)

func init() { register("figure11", Figure11TimeBound) }

// Figure11TimeBound reproduces Appendix C.2's Figure 11: with a *time-bound*
// AQP engine (no online refinement — the engine scans the largest prefix
// fitting the budget), Verdict's average error-bound reduction over NoLearn
// for each (dataset, tier) combination.
func Figure11TimeBound(o Options) (*Report, error) {
	r := &Report{
		ID:    "figure11",
		Title: "Error reduction on a time-bound AQP engine",
		Columns: []string{"Dataset", "Tier", "Budget", "NoLearn bound",
			"Verdict bound", "Reduction"},
	}
	_, _, train, test := sizing(o)
	alpha := core.Alpha95
	for _, c := range table4Configs {
		f, err := buildFixture(o, c)
		if err != nil {
			return nil, err
		}
		v := core.New(f.table, core.Config{})
		if err := trainOn(v, f.engine, f.sqls[:train]); err != nil {
			return nil, err
		}
		// Budget: plan overhead plus a quarter of the full scan, mirroring
		// the paper's few-second budgets.
		cost := f.engine.Cost()
		full := cost.ScanTime(f.engine.Sample().Rows())
		budget := cost.PlanOverhead + full/4

		var bN, bV float64
		n := 0
		for _, sql := range f.sqls[train:min(train+test, len(f.sqls))] {
			snips, err := snippetsOf(f.engine, sql, v.Config().Nmax)
			if err != nil {
				return nil, err
			}
			view := f.engine.Acquire()
			upd := view.EvalPrefix(snips, view.RowsWithin(budget))
			for i, sn := range snips {
				if !upd.Valid[i] {
					continue
				}
				exact := f.engine.Exact(sn)
				den := math.Abs(exact)
				if den < 1e-9 || (sn.Kind == query.FreqAgg && exact < minExactFreq) {
					continue
				}
				raw := aqp.Sanitize(upd.Estimates[i])
				inf := v.Infer(sn, raw)
				bN += alpha * raw.StdErr / den
				bV += alpha * inf.Err / den
				n++
			}
			// Record for subsequent queries (the engine keeps learning).
			for i, sn := range snips {
				if upd.Valid[i] {
					v.Record(sn, upd.Estimates[i])
				}
			}
		}
		if n == 0 {
			continue
		}
		bN /= float64(n)
		bV /= float64(n)
		r.Add(f.label, tier(c.cached), budget.Round(time.Millisecond).String(),
			fmtPct(bN), fmtPct(bV), fmtPct(reduction(bN, bV)))
	}
	r.Note("expected shape (paper Fig. 11): 63–89%% error reductions across all four combinations")
	return r, nil
}
