package experiments

import (
	"fmt"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/workload"
)

func init() {
	register("figure6a", Figure6aWorkloadDiversity)
	register("figure6b", Figure6bDataDistributions)
	register("figure6c", Figure6cLearningBehavior)
	register("figure6d", Figure6dOverheadGrowth)
}

// syntheticFixture builds the §8.6 table + engine at scale. The measure's
// correlation length-scale is matched to each distribution's *effective*
// value span (±1σ mass), so all three sweeps carry the same amount of
// learnable structure — the comparison is about the model, not about how
// much signal the marginal happens to leave in range.
func syntheticFixture(o Options, dist workload.Distribution, seed int64) (*workload.Synthetic, *aqp.Engine, error) {
	spec := workload.DefaultSyntheticSpec()
	spec.Dist = dist
	spec.Seed = seed
	switch dist {
	case workload.Gaussian:
		spec.SmoothEll = 1.0 // effective span ≈ 3.2 of the [0,10] domain
	case workload.Skewed:
		spec.SmoothEll = 1.3 // effective span ≈ 4
	}
	if o.Scale == Small {
		spec.Rows = 20000
		spec.NumericCols = 12
		spec.CategoricalCols = 2
	} else {
		spec.Rows = 60000
		spec.NumericCols = 45
		spec.CategoricalCols = 5
	}
	syn, err := workload.GenerateSynthetic(spec)
	if err != nil {
		return nil, nil, err
	}
	sample, err := aqp.BuildSample(syn.Table, 0.1, 0, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return syn, aqp.NewEngine(syn.Table, sample, aqp.CachedCost), nil
}

// errorReduction trains on `past` queries and returns Verdict's mean
// actual-error reduction over NoLearn on `test` fresh queries (the Y-axis
// of Figure 6(a)–(c)).
func errorReduction(syn *workload.Synthetic, engine *aqp.Engine, qspec workload.QuerySpec, past, test int) (float64, error) {
	sqls := workload.SyntheticQueries(syn, qspec, past+test)
	v := core.New(syn.Table, core.Config{})
	if err := trainOn(v, engine, sqls[:past]); err != nil {
		return 0, err
	}
	var rawErr, impErr float64
	n := 0
	for _, sql := range sqls[past:] {
		pts, err := runOnlineQuery(v, engine, sql, false)
		if err != nil {
			return 0, err
		}
		if len(pts) == 0 {
			continue
		}
		// Compare at an early online-aggregation step (a quarter of the
		// sample): the regime where approximate answers are actually used
		// and where learning has headroom — at full consumption both
		// systems converge and the ratio is dominated by noise.
		p := pts[min(len(pts)/4, len(pts)-1)]
		rawErr += p.rawErr
		impErr += p.impErr
		n++
	}
	if n == 0 || rawErr == 0 {
		return 0, fmt.Errorf("experiments: no usable test queries")
	}
	return reduction(rawErr/float64(n), impErr/float64(n)), nil
}

// meanErrorReduction averages errorReduction over several query-generation
// seeds: a single workload instantiation's reduction is noisy at
// reproduction scale, and the sweeps of Figure 6 are about the trend.
func meanErrorReduction(syn *workload.Synthetic, engine *aqp.Engine, qspec workload.QuerySpec, past, test, seeds int) (float64, error) {
	if seeds < 1 {
		seeds = 1
	}
	sum := 0.0
	for s := 0; s < seeds; s++ {
		q := qspec
		q.Seed = qspec.Seed + int64(s)*971
		red, err := errorReduction(syn, engine, q, past, test)
		if err != nil {
			return 0, err
		}
		sum += red
	}
	return sum / float64(seeds), nil
}

// Figure6aWorkloadDiversity reproduces Figure 6(a): error reduction versus
// the proportion of frequently accessed columns (4–40%), with the number of
// past queries fixed at 100.
func Figure6aWorkloadDiversity(o Options) (*Report, error) {
	r := &Report{
		ID:      "figure6a",
		Title:   "Error reduction vs workload diversity (freq-accessed column ratio)",
		Columns: []string{"Freq-col ratio", "Error reduction"},
	}
	syn, engine, err := syntheticFixture(o, workload.Uniform, o.Seed+61)
	if err != nil {
		return nil, err
	}
	past := 100
	test := 30
	if o.Scale == Small {
		past, test = 50, 15
	}
	for _, ratio := range []float64{0.04, 0.10, 0.20, 0.40} {
		qspec := workload.DefaultQuerySpec()
		qspec.FreqColRatio = ratio
		qspec.Seed = o.Seed + int64(ratio*1000)
		red, err := meanErrorReduction(syn, engine, qspec, past, test, 3)
		if err != nil {
			return nil, err
		}
		r.Add(fmtPct(ratio), fmtPct(red))
	}
	r.Note("expected shape (paper Fig. 6a): error reduction decreases as the workload touches a more diverse column set")
	return r, nil
}

// Figure6bDataDistributions reproduces Figure 6(b): error reduction across
// uniform, Gaussian and skewed (log-normal) data distributions.
func Figure6bDataDistributions(o Options) (*Report, error) {
	r := &Report{
		ID:      "figure6b",
		Title:   "Error reduction vs data distribution",
		Columns: []string{"Distribution", "Error reduction"},
	}
	past, test := 60, 25
	if o.Scale == Small {
		past, test = 40, 15
	}
	for i, dist := range []workload.Distribution{workload.Uniform, workload.Gaussian, workload.Skewed} {
		syn, engine, err := syntheticFixture(o, dist, o.Seed+62+int64(i))
		if err != nil {
			return nil, err
		}
		qspec := workload.DefaultQuerySpec()
		qspec.Seed = o.Seed + 620 + int64(i)
		red, err := meanErrorReduction(syn, engine, qspec, past, test, 3)
		if err != nil {
			return nil, err
		}
		r.Add(dist.String(), fmtPct(red))
	}
	r.Note("expected shape (paper Fig. 6b): positive reductions across all distributions — the maximum-entropy model makes no distributional assumption")
	r.Note("caveat: Eq. 7's kernel integrals weight tuples uniformly within a range; strongly concentrated marginals (Gaussian) violate that premise inside wide windows, and the learner responds by discounting those dimensions — reductions are positive but smaller than uniform's. The paper's synthetic data did not stress this corner")
	return r, nil
}

// Figure6cLearningBehavior reproduces Figure 6(c): error reduction versus
// the number of past queries on a highly diverse workload (freq ratio 20%).
func Figure6cLearningBehavior(o Options) (*Report, error) {
	r := &Report{
		ID:      "figure6c",
		Title:   "Error reduction vs number of past queries",
		Columns: []string{"Past queries", "Error reduction"},
	}
	syn, engine, err := syntheticFixture(o, workload.Uniform, o.Seed+63)
	if err != nil {
		return nil, err
	}
	counts := []int{10, 100, 200, 300, 400}
	test := 25
	if o.Scale == Small {
		counts = []int{10, 50, 100, 150}
		test = 15
	}
	qspec := workload.DefaultQuerySpec()
	qspec.FreqColRatio = 0.2
	qspec.Seed = o.Seed + 630
	for _, past := range counts {
		red, err := meanErrorReduction(syn, engine, qspec, past, test, 2)
		if err != nil {
			return nil, err
		}
		r.Add(itoa(past), fmtPct(red))
	}
	r.Note("expected shape (paper Fig. 6c): reduction grows with past queries and saturates")
	return r, nil
}

// Figure6dOverheadGrowth reproduces Figure 6(d): Verdict's inference
// overhead (wall-clock, per snippet) as the synopsis grows.
func Figure6dOverheadGrowth(o Options) (*Report, error) {
	r := &Report{
		ID:      "figure6d",
		Title:   "Inference overhead vs number of past queries",
		Columns: []string{"Past queries", "Overhead per query"},
		Timing:  []string{"Overhead per query"},
	}
	syn, engine, err := syntheticFixture(o, workload.Uniform, o.Seed+64)
	if err != nil {
		return nil, err
	}
	counts := []int{10, 100, 200, 300, 400}
	if o.Scale == Small {
		counts = []int{10, 50, 100}
	}
	qspec := workload.DefaultQuerySpec()
	qspec.Seed = o.Seed + 640
	sqls := workload.SyntheticQueries(syn, qspec, counts[len(counts)-1]+20)
	v := core.New(syn.Table, core.Config{})
	recorded := 0
	for _, past := range counts {
		if err := trainOn(v, engine, sqls[recorded:past]); err != nil {
			return nil, err
		}
		recorded = past
		// Measure inference on the held-out tail.
		var elapsed time.Duration
		n := 0
		for _, sql := range sqls[len(sqls)-10:] {
			snips, err := snippetsOf(engine, sql, v.Config().Nmax)
			if err != nil {
				return nil, err
			}
			upd := engine.RunToCompletion(snips)
			t0 := time.Now()
			for i, sn := range snips {
				_ = v.Infer(sn, aqp.Sanitize(upd.Estimates[i]))
			}
			elapsed += time.Since(t0)
			n++
		}
		r.Add(itoa(past), (elapsed / time.Duration(n)).Round(time.Microsecond).String())
	}
	r.Note("expected shape (paper Fig. 6d): overhead stays in the low-millisecond range and grows only mildly (O(n²) solves on a precomputed factorization)")
	return r, nil
}
