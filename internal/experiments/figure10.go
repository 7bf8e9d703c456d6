package experiments

import (
	"math"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
	"repro/internal/workload"
)

func init() { register("figure10", Figure10VsCaching) }

// Figure10VsCaching reproduces Appendix C.1's Figure 10: Verdict against
// Baseline2, a NoLearn variant that replays cached answers for *identical*
// past queries. Panel (a) varies the sample size used for past queries;
// panel (b) varies the fraction of novel (never-seen) queries in the test
// workload. Verdict benefits novel queries; Baseline2 cannot.
func Figure10VsCaching(o Options) (*Report, error) {
	r := &Report{
		ID:    "figure10",
		Title: "Verdict vs Baseline2 (answer caching)",
		Columns: []string{"Panel", "Setting", "Baseline2 reduction",
			"Verdict reduction"},
	}
	rows := 60000
	if o.Scale == Small {
		rows = 20000
	}
	tb, err := workload.GenerateTPCH(rows, o.Seed+101)
	if err != nil {
		return nil, err
	}

	// Panel (a): sample-size sweep at a fixed 50% novel-query ratio.
	fracs := []float64{0.01, 0.05, 0.1, 0.3}
	if o.Scale == Small {
		fracs = []float64{0.05, 0.3}
	}
	for _, frac := range fracs {
		b2, vr, err := cachingComparison(tb, frac, 0.5, o.Seed+102)
		if err != nil {
			return nil, err
		}
		r.Add("(a) sample size", fmtPct(frac), fmtPct(b2), fmtPct(vr))
	}

	// Panel (b): novel-query ratio sweep at a fixed sample size.
	ratios := []float64{0, 0.25, 0.5, 0.75, 1.0}
	if o.Scale == Small {
		ratios = []float64{0, 0.5, 1.0}
	}
	for _, novel := range ratios {
		b2, vr, err := cachingComparison(tb, 0.2, novel, o.Seed+103)
		if err != nil {
			return nil, err
		}
		r.Add("(b) novel ratio", fmtPct(novel), fmtPct(b2), fmtPct(vr))
	}
	r.Note("expected shape (paper Fig. 10): Verdict ≥ Baseline2 everywhere; Baseline2 collapses toward 0 as the novel-query ratio approaches 100%%, Verdict degrades gracefully")
	return r, nil
}

// cachingComparison trains both systems on one set of past queries and
// measures actual-error reduction over NoLearn on a test set with the given
// fraction of novel queries (the rest are verbatim repeats of past ones).
func cachingComparison(tb *storage.Table, frac, novelRatio float64, seed int64) (baseline2, verdict float64, err error) {
	sample, err := aqp.BuildSample(tb, frac, 0, seed)
	if err != nil {
		return 0, 0, err
	}
	engine := aqp.NewEngine(tb, sample, aqp.CachedCost)

	const past, test = 30, 30
	pastSQL := workload.TPCHWorkload(past, seed+1)
	novelSQL := workload.TPCHWorkload(test, seed+2)

	v := core.New(tb, core.Config{})
	cache := answerCache{}
	// Process past queries: record into both the synopsis and the cache.
	for _, sql := range pastSQL {
		snips, err := snippetsOf(engine, sql, v.Config().Nmax)
		if err != nil {
			return 0, 0, err
		}
		upd := engine.RunToCompletion(snips)
		for i, sn := range snips {
			if upd.Valid[i] {
				v.Record(sn, upd.Estimates[i])
				cache.store(sn, upd.Estimates[i])
			}
		}
	}
	if err := v.Train(); err != nil {
		return 0, 0, err
	}

	// Test set: novelRatio fresh queries, the rest repeats of past ones.
	rng := randx.New(seed + 3)
	var rawErr, b2Err, vErr float64
	n := 0
	for i := 0; i < test; i++ {
		sql := pastSQL[rng.Intn(len(pastSQL))]
		if rng.Bool(novelRatio) {
			sql = novelSQL[i]
		}
		snips, err := snippetsOf(engine, sql, v.Config().Nmax)
		if err != nil {
			return 0, 0, err
		}
		// A noisier (prefix) raw answer: stop online aggregation early so
		// there is headroom for both systems to improve.
		view := engine.Acquire()
		_, end := view.Sample.BatchBounds(2)
		upd := view.EvalPrefix(snips, end)
		for si, sn := range snips {
			if !upd.Valid[si] {
				continue
			}
			exact := engine.Exact(sn)
			den := math.Abs(exact)
			if sn.Kind == query.FreqAgg && exact < minExactFreq {
				continue
			}
			if den < 1e-9 {
				continue
			}
			raw := aqp.Sanitize(upd.Estimates[si])
			// Baseline2: replay the cached answer when the snippet repeats
			// and the cached error beats the current raw error.
			b2 := raw
			if cached, ok := cache.lookup(sn); ok && cached.StdErr < raw.StdErr {
				b2 = cached
			}
			inf := v.Infer(sn, raw)
			rawErr += math.Abs(raw.Value-exact) / den
			b2Err += math.Abs(b2.Value-exact) / den
			vErr += math.Abs(inf.Answer-exact) / den
			n++
		}
	}
	if n == 0 || rawErr == 0 {
		return 0, 0, nil
	}
	return reduction(rawErr, b2Err), reduction(rawErr, vErr), nil
}

// answerCache is the paper's Baseline2 (Appendix C.1): it memoizes past
// snippet answers by canonical key and replays the lowest-error answer for
// an identical snippet, providing no benefit to novel snippets.
type answerCache map[string]query.ScalarEstimate

// lookup returns the cached answer for an identical snippet, if any.
func (c answerCache) lookup(sn *query.Snippet) (query.ScalarEstimate, bool) {
	est, ok := c[sn.Key()]
	return est, ok
}

// store records an answer, keeping the lowest-error instance ("when there
// are multiple instances of the same query, Baseline2 caches the one with
// the lowest expected error").
func (c answerCache) store(sn *query.Snippet, est query.ScalarEstimate) {
	key := sn.Key()
	if old, ok := c[key]; !ok || est.StdErr < old.StdErr {
		c[key] = est
	}
}
