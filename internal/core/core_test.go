package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// smoothTable builds a relation whose measure is a smooth function of the
// single numeric dimension "x" over [0,100] with planted length-scale ell —
// known ground truth for inference and learning tests.
func smoothTable(t testing.TB, rows int, ell, sigma2, noise float64, seed int64) (*storage.Table, *randx.SmoothFieldAt) {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension, Min: 0, Max: 100},
		{Name: "y", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("smooth", schema)
	rng := randx.New(seed)
	field := rng.NewSmoothField(ell, sigma2, 10)
	for i := 0; i < rows; i++ {
		x := rng.Uniform(0, 100)
		y := field.At(x) + rng.Normal(0, noise)
		if err := tb.AppendRow([]storage.Value{storage.Num(x), storage.Num(y)}); err != nil {
			t.Fatal(err)
		}
	}
	return tb, field
}

// avgSnippet builds an AVG(y) snippet over x ∈ [lo, hi].
func avgSnippet(tb *storage.Table, lo, hi float64) *query.Snippet {
	g := query.NewRegion(tb.Schema())
	xcol, _ := tb.Schema().Lookup("x")
	g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
	ycol, _ := tb.Schema().Lookup("y")
	return &query.Snippet{
		Kind:       query.AvgAgg,
		MeasureKey: "y",
		Measure:    func(t *storage.Table, row int) float64 { return t.NumAt(row, ycol) },
		Region:     g,
		Table:      tb,
	}
}

// freqSnippet builds a FREQ(*) snippet over x ∈ [lo, hi].
func freqSnippet(tb *storage.Table, lo, hi float64) *query.Snippet {
	g := query.NewRegion(tb.Schema())
	xcol, _ := tb.Schema().Lookup("x")
	g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
	return &query.Snippet{Kind: query.FreqAgg, Region: g, Table: tb}
}

// exactAvg computes the true mean of y over the region.
func exactAvg(tb *storage.Table, lo, hi float64) float64 {
	xcol, _ := tb.Schema().Lookup("x")
	ycol, _ := tb.Schema().Lookup("y")
	var m mathx.Moments
	for row := 0; row < tb.Rows(); row++ {
		x := tb.NumAt(row, xcol)
		if x >= lo && x <= hi {
			m.Add(tb.NumAt(row, ycol))
		}
	}
	return m.Mean()
}

// noisyRaw perturbs the exact answer with Gaussian noise of the given
// standard error — a stand-in AQP raw answer with calibrated β.
func noisyRaw(rng *randx.Source, exact, stderr float64) query.ScalarEstimate {
	return query.ScalarEstimate{Value: exact + rng.Normal(0, stderr), StdErr: stderr}
}

func TestEmptySynopsisPassThrough(t *testing.T) {
	tb, _ := smoothTable(t, 500, 20, 4, 0.1, 1)
	v := New(tb, Config{})
	sn := avgSnippet(tb, 10, 30)
	raw := query.ScalarEstimate{Value: 5, StdErr: 2}
	res := v.Infer(sn, raw)
	if res.UsedModel || res.Answer != 5 || res.Err != 2 {
		t.Fatalf("empty synopsis must pass through: %+v", res)
	}
}

func TestTheorem1ImprovedErrorNeverLarger(t *testing.T) {
	// Property: for random synopses and snippets, β̂ ≤ β (Theorem 1).
	tb, _ := smoothTable(t, 1000, 20, 4, 0.1, 2)
	f := func(seed int64) bool {
		rng := randx.New(seed)
		v := New(tb, Config{})
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			lo := rng.Uniform(0, 90)
			sn := avgSnippet(tb, lo, lo+rng.Uniform(1, 10))
			raw := noisyRaw(rng, exactAvg(tb, lo, lo+5), rng.Uniform(0.05, 1))
			v.Record(sn, raw)
		}
		if err := v.Train(); err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			lo := rng.Uniform(0, 90)
			sn := avgSnippet(tb, lo, lo+rng.Uniform(1, 10))
			beta := rng.Uniform(0.05, 2)
			raw := noisyRaw(rng, exactAvg(tb, lo, lo+5), beta)
			res := v.Infer(sn, raw)
			if res.Err > raw.StdErr*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInferenceImprovesAccuracy(t *testing.T) {
	// With a well-specified model and many accurate past answers, improved
	// answers must beat raw answers on average (the paper's core claim).
	const ell, sigma2 = 25.0, 9.0
	tb, _ := smoothTable(t, 4000, ell, sigma2, 0.2, 3)
	rng := randx.New(99)

	v := New(tb, Config{})
	xcol, _ := tb.Schema().Lookup("x")
	p := kernel.Params{Sigma2: sigma2, Ells: map[int]float64{xcol: ell}}
	v.SetParams(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}, p)

	// Past snippets: accurate answers over scattered ranges.
	for i := 0; i < 60; i++ {
		lo := rng.Uniform(0, 90)
		hi := lo + rng.Uniform(5, 10)
		exact := exactAvg(tb, lo, hi)
		v.Record(avgSnippet(tb, lo, hi), noisyRaw(rng, exact, 0.15))
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}

	var rawErrSum, impErrSum float64
	const trials = 80
	for i := 0; i < trials; i++ {
		lo := rng.Uniform(0, 90)
		hi := lo + rng.Uniform(5, 10)
		exact := exactAvg(tb, lo, hi)
		raw := noisyRaw(rng, exact, 1.0) // deliberately noisy raw answer
		res := v.Infer(avgSnippet(tb, lo, hi), raw)
		rawErrSum += math.Abs(raw.Value - exact)
		impErrSum += math.Abs(res.Answer - exact)
	}
	if impErrSum >= rawErrSum*0.8 {
		t.Fatalf("inference did not improve: improved=%v raw=%v", impErrSum/trials, rawErrSum/trials)
	}
}

func TestRepeatedSnippetNearExactRecall(t *testing.T) {
	// A new snippet identical to an accurately-answered past snippet must
	// be pulled strongly toward the past answer.
	tb, _ := smoothTable(t, 2000, 25, 9, 0.2, 4)
	rng := randx.New(5)
	v := New(tb, Config{})
	xcol, _ := tb.Schema().Lookup("x")
	v.SetParams(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"},
		kernel.Params{Sigma2: 9, Ells: map[int]float64{xcol: 25}})

	exact := exactAvg(tb, 20, 30)
	v.Record(avgSnippet(tb, 20, 30), query.ScalarEstimate{Value: exact + 0.01, StdErr: 0.02})
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	raw := noisyRaw(rng, exact, 2.0)
	res := v.Infer(avgSnippet(tb, 20, 30), raw)
	if !res.UsedModel {
		t.Fatalf("model rejected: %+v", res)
	}
	if math.Abs(res.Answer-exact) > 0.2 {
		t.Fatalf("recall answer=%v exact=%v raw=%v", res.Answer, exact, raw.Value)
	}
	if res.Err > 0.1 {
		t.Fatalf("recall error=%v should be tiny", res.Err)
	}
}

func TestValidationRejectsBadModel(t *testing.T) {
	// Plant absurdly long length-scales (everything fully correlated) and
	// feed past answers from one end of the domain; a new query at the
	// other end with a contradicting raw answer must be rejected.
	tb, _ := smoothTable(t, 2000, 10, 9, 0.2, 6)
	xcol, _ := tb.Schema().Lookup("x")
	v := New(tb, Config{})
	v.SetParams(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"},
		kernel.Params{Sigma2: 9, Ells: map[int]float64{xcol: 1e6}})

	// Past answer says "the average is 50" (fabricated, far from truth).
	v.Record(avgSnippet(tb, 0, 10), query.ScalarEstimate{Value: 50, StdErr: 0.01})
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	// New snippet whose raw answer is near the true field mean (~10).
	exact := exactAvg(tb, 80, 90)
	raw := query.ScalarEstimate{Value: exact, StdErr: 0.05}
	res := v.Infer(avgSnippet(tb, 80, 90), raw)
	if res.UsedModel {
		t.Fatalf("bad model accepted: %+v", res)
	}
	if res.Answer != raw.Value || res.Err != raw.StdErr {
		t.Fatal("rejected inference must return raw answer")
	}
}

func TestFreqNegativeRejected(t *testing.T) {
	tb, _ := smoothTable(t, 1000, 20, 4, 0.1, 7)
	v := New(tb, Config{})
	// Past FREQ answers near zero with strong negative pull: fabricate a
	// past snippet with a very negative answer so the GP extrapolates
	// below zero.
	v.Record(freqSnippet(tb, 0, 50), query.ScalarEstimate{Value: -0.4, StdErr: 0.001})
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	raw := query.ScalarEstimate{Value: 0.01, StdErr: 5.0} // huge raw error
	res := v.Infer(freqSnippet(tb, 0, 50), raw)
	if res.UsedModel && res.Answer < 0 {
		t.Fatalf("negative FREQ estimate accepted: %+v", res)
	}
}

func TestSynopsisLRUCap(t *testing.T) {
	tb, _ := smoothTable(t, 500, 20, 4, 0.1, 9)
	v := New(tb, Config{SynopsisCap: 5})
	rng := randx.New(1)
	for i := 0; i < 12; i++ {
		lo := float64(i * 5)
		v.Record(avgSnippet(tb, lo, lo+4), noisyRaw(rng, 10, 0.5))
	}
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}
	keys := v.SynopsisKeys(id)
	if len(keys) != 5 {
		t.Fatalf("synopsis size=%d want 5", len(keys))
	}
	if v.SnippetCount() != 5 {
		t.Fatalf("count=%d", v.SnippetCount())
	}
	// The oldest snippets (lo=0..30) must be gone; the newest retained.
	for _, k := range keys {
		if k == avgSnippet(tb, 0, 4).Key() {
			t.Fatal("oldest snippet not evicted")
		}
	}
}

func TestRepeatedSnippetKeepsBetterAnswer(t *testing.T) {
	tb, _ := smoothTable(t, 500, 20, 4, 0.1, 10)
	v := New(tb, Config{})
	sn := avgSnippet(tb, 10, 20)
	v.Record(sn, query.ScalarEstimate{Value: 5, StdErr: 1.0})
	v.Record(avgSnippet(tb, 10, 20), query.ScalarEstimate{Value: 6, StdErr: 0.2}) // better
	v.Record(avgSnippet(tb, 10, 20), query.ScalarEstimate{Value: 7, StdErr: 3.0}) // worse
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}
	if keys := v.SynopsisKeys(id); len(keys) != 1 {
		t.Fatalf("dedup failed: %d entries", len(keys))
	}
	m := v.modelOf(id)
	if m.entries[0].theta != 6 || m.entries[0].beta != 0.2 {
		t.Fatalf("kept wrong answer: %+v", m.entries[0])
	}
}

func TestIncrementalRecordMatchesRebuild(t *testing.T) {
	// Infer after incremental Extend-based records must match infer after
	// a from-scratch rebuild.
	tb, _ := smoothTable(t, 1000, 20, 4, 0.1, 11)
	rng := randx.New(2)
	mkRaw := func(i int) (lo float64, est query.ScalarEstimate) {
		lo = float64(i * 7 % 85)
		return lo, query.ScalarEstimate{Value: 10 + rng.Normal(0, 1), StdErr: 0.3}
	}

	a := New(tb, Config{})
	b := New(tb, Config{})
	// Pin parameters so the σ² moment-matching at rebuild cannot differ
	// between the incremental and rebuilt paths.
	xcol, _ := tb.Schema().Lookup("x")
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}
	pinned := kernel.Params{Sigma2: 4, Ells: map[int]float64{xcol: 20}}
	a.SetParams(id, pinned)
	b.SetParams(id, pinned)
	// Seed both with some history and train (fixes chol).
	for i := 0; i < 10; i++ {
		lo, est := mkRaw(i)
		a.Record(avgSnippet(tb, lo, lo+5), est)
		b.Record(avgSnippet(tb, lo, lo+5), est)
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(); err != nil {
		t.Fatal(err)
	}
	// Now record more snippets: a extends incrementally (post-Train chol
	// exists), b gets its factorization wiped to force a rebuild.
	for i := 10; i < 20; i++ {
		lo, est := mkRaw(i)
		a.Record(avgSnippet(tb, lo, lo+5), est)
		b.Record(avgSnippet(tb, lo, lo+5), est)
	}
	b.modelOf(id).chol = nil // force rebuild path

	sn := avgSnippet(tb, 40, 50)
	raw := query.ScalarEstimate{Value: 9, StdErr: 0.5}
	ra := a.Infer(sn, raw)
	rb := b.Infer(sn, raw)
	if math.Abs(ra.Answer-rb.Answer) > 1e-6 || math.Abs(ra.Err-rb.Err) > 1e-6 {
		t.Fatalf("incremental %+v != rebuild %+v", ra, rb)
	}
}

// logLikelihood evaluates Eq. 13 for the given parameters over the model's
// current synopsis, through the learner's own likelihood.
func (m *model) logLikelihood(p kernel.Params) float64 {
	if len(m.entries) == 0 {
		return 0
	}
	lik := newLikelihood(m.entries, m.priorMean())
	lik.setElls(p.Ells)
	return -lik.negLog(p.Sigma2)
}

func TestLearningRecoversPlantedLengthScale(t *testing.T) {
	// Generate raw answers directly from a planted GP over ranges, then
	// check the learned length-scale is the right order of magnitude
	// (Appendix A.2 / Figure 7 in miniature).
	const planted = 15.0
	tb, field := smoothTable(t, 4000, planted, 9, 0.0, 12)
	rng := randx.New(3)
	v := New(tb, Config{LearnCap: 60})
	for i := 0; i < 60; i++ {
		lo := rng.Uniform(0, 92)
		hi := lo + rng.Uniform(2, 8)
		// Exact range average of the planted field, as an accurate answer.
		mid := exactAvg(tb, lo, hi)
		v.Record(avgSnippet(tb, lo, hi), query.ScalarEstimate{Value: mid, StdErr: 0.05})
	}
	_ = field
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}
	p, ok := v.Params(id)
	if !ok {
		t.Fatal("no params")
	}
	xcol, _ := tb.Schema().Lookup("x")
	got := p.Ells[xcol]
	if got < planted/4 || got > planted*4 {
		t.Fatalf("learned ell=%v, planted %v", got, planted)
	}
	// Learned parameters must out-score wildly wrong ones in likelihood.
	wrong := p.Clone()
	wrong.Ells[xcol] = planted * 50
	if v.modelOf(id).logLikelihood(p) < v.modelOf(id).logLikelihood(wrong) {
		t.Fatal("learned params scored below wrong params")
	}
}

// applyAppend applies Lemma 3's adjustment with explicit drift to one
// function's model, as OnAppend does to every model with estimated drift.
func (v *Verdict) applyAppend(id query.FuncID, drift Drift, oldRows, appendedRows int) {
	if m := v.modelOf(id); m != nil {
		m.mu.Lock()
		m.applyAppend(drift, oldRows, appendedRows)
		m.mu.Unlock()
	}
}

func TestApplyAppendInflatesErrors(t *testing.T) {
	tb, _ := smoothTable(t, 1000, 20, 4, 0.1, 13)
	v := New(tb, Config{})
	sn := avgSnippet(tb, 10, 30)
	v.Record(sn, query.ScalarEstimate{Value: 10, StdErr: 0.5})
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}

	drift := Drift{Mu: 2, Eta2: 1}
	v.applyAppend(id, drift, 900, 100) // ratio = 0.1
	e := v.modelOf(id).entries[0]
	if math.Abs(e.theta-10.2) > 1e-9 {
		t.Fatalf("theta=%v want 10.2", e.theta)
	}
	want := math.Sqrt(0.25 + 0.01)
	if math.Abs(e.beta-want) > 1e-9 {
		t.Fatalf("beta=%v want %v", e.beta, want)
	}
	// Larger appends inflate more (monotonicity property).
	v2 := New(tb, Config{})
	v2.Record(avgSnippet(tb, 10, 30), query.ScalarEstimate{Value: 10, StdErr: 0.5})
	v2.applyAppend(id, drift, 500, 500) // ratio = 0.5
	if v2.modelOf(id).entries[0].beta <= e.beta {
		t.Fatal("larger append ratio must inflate more")
	}
}

// BenchmarkAppendAdjust measures Lemma 3's append adjustment of an
// 81-snippet synopsis plus the Infer that republishes it. The adjustment
// moves every β on the diagonal, so refactorizations/op is 1: the one
// synopsis edit still paid with an O(n³) factorization. kernel-calls/op is
// 0, since the pair covariances did not move and the Gram triangle is
// reused.
func BenchmarkAppendAdjust(b *testing.B) {
	tb, _ := smoothTable(b, 2000, 20, 4, 0.1, 3)
	v := New(tb, Config{})
	rng := randx.New(11)
	for i := 0; i < 81; i++ {
		lo := rng.Uniform(0, 90)
		v.Record(avgSnippet(tb, lo, lo+5), query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5})
	}
	probe := avgSnippet(tb, 40, 45)
	raw := query.ScalarEstimate{Value: 0, StdErr: 0.5}
	id := probe.Func()
	v.Infer(probe, raw)
	c0 := v.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.applyAppend(id, Drift{Mu: 1e-3, Eta2: 1e-8}, 1_000_000, 500)
		v.Infer(probe, raw)
	}
	c := v.Counters()
	b.ReportMetric(float64(c.GramKernelCalls-c0.GramKernelCalls)/float64(b.N), "kernel-calls/op")
	b.ReportMetric(float64(c.Refactorizations-c0.Refactorizations)/float64(b.N), "refactorizations/op")
}

func TestEstimateDriftDetectsShift(t *testing.T) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "y", Kind: storage.Numeric, Role: storage.Measure},
	})
	old := storage.NewTable("old", schema)
	app := storage.NewTable("app", schema)
	rng := randx.New(14)
	for i := 0; i < 3000; i++ {
		if err := old.AppendRow([]storage.Value{storage.Num(rng.Uniform(0, 1)), storage.Num(rng.Normal(10, 1))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		if err := app.AppendRow([]storage.Value{storage.Num(rng.Uniform(0, 1)), storage.Num(rng.Normal(13, 1))}); err != nil {
			t.Fatal(err)
		}
	}
	ycol, _ := schema.Lookup("y")
	measure := func(t *storage.Table, row int) float64 { return t.NumAt(row, ycol) }
	d := EstimateDrift(old, app, measure, 20, 1)
	if math.Abs(d.Mu-3) > 0.3 {
		t.Fatalf("drift mu=%v want ~3", d.Mu)
	}
	if d.Eta2 < 0 {
		t.Fatalf("eta2=%v", d.Eta2)
	}
}

func TestOnAppendEndToEnd(t *testing.T) {
	tb, _ := smoothTable(t, 2000, 20, 4, 0.1, 15)
	rng := randx.New(16)
	v := New(tb, Config{})
	for i := 0; i < 10; i++ {
		lo := float64(i * 9)
		v.Record(avgSnippet(tb, lo, lo+8), noisyRaw(rng, exactAvg(tb, lo, lo+8), 0.2))
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	// Appended data shifted upward.
	schema := tb.Schema()
	app := storage.NewTable("app", schema)
	for i := 0; i < 500; i++ {
		if err := app.AppendRow([]storage.Value{
			storage.Num(rng.Uniform(0, 100)), storage.Num(rng.Normal(20, 1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	id := query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"}
	before := v.modelOf(id).entries[0].beta
	v.OnAppend(tb, app, 1)
	after := v.modelOf(id).entries[0].beta
	if after <= before {
		t.Fatalf("append did not inflate error: %v -> %v", before, after)
	}
	// Inference still works after the adjustment.
	res := v.Infer(avgSnippet(tb, 10, 20), query.ScalarEstimate{Value: 12, StdErr: 1})
	if res.Err > 1 {
		t.Fatalf("post-append inference broken: %+v", res)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Nmax != 1000 || c.SynopsisCap != 2000 || c.LearnCap != 150 {
		t.Fatalf("defaults: %+v", c)
	}
	if math.Abs(Alpha95-1.96) > 0.01 {
		t.Fatalf("alpha=%v", Alpha95)
	}
	if alpha99 <= Alpha95 {
		t.Fatal("validation multiplier must exceed reporting multiplier")
	}
}

func TestFootprintGrowsWithSynopsis(t *testing.T) {
	tb, _ := smoothTable(t, 200, 20, 4, 0.1, 17)
	v := New(tb, Config{})
	empty := v.FootprintBytes()
	rng := randx.New(4)
	for i := 0; i < 20; i++ {
		lo := float64(i * 4)
		v.Record(avgSnippet(tb, lo, lo+3), noisyRaw(rng, 10, 0.3))
	}
	if v.FootprintBytes() <= empty {
		t.Fatal("footprint did not grow")
	}
}

func TestInferWithInfiniteRawError(t *testing.T) {
	// When the AQP engine has no estimate yet (β=∞ sentinel), the model
	// alone must answer with γ as the error.
	tb, _ := smoothTable(t, 1000, 25, 9, 0.1, 18)
	xcol, _ := tb.Schema().Lookup("x")
	v := New(tb, Config{})
	v.SetParams(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"},
		kernel.Params{Sigma2: 9, Ells: map[int]float64{xcol: 25}})
	exact := exactAvg(tb, 20, 30)
	v.Record(avgSnippet(tb, 20, 30), query.ScalarEstimate{Value: exact, StdErr: 0.05})
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	raw := query.ScalarEstimate{Value: 0, StdErr: math.MaxFloat64}
	res := v.Infer(avgSnippet(tb, 22, 28), raw)
	if !res.UsedModel {
		t.Fatalf("model rejected with no raw info: %+v", res)
	}
	if math.Abs(res.Answer-exact) > 1.5 {
		t.Fatalf("model-only answer=%v exact=%v", res.Answer, exact)
	}
	if res.Err >= math.Sqrt(9) {
		t.Fatalf("model-only error=%v should be below prior sigma", res.Err)
	}
}
