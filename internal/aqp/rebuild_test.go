package aqp

import (
	"math"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// driftedBatch builds an append batch whose week values concentrate in
// [lo, hi] — the distribution shift that makes tail-piled samples visibly
// non-uniform in prefix.
func driftedBatch(t *testing.T, rows int, lo, hi float64, seed int64) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("batch", schema)
	rng := randx.New(seed)
	for i := 0; i < rows; i++ {
		week := rng.Uniform(lo, hi)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week), storage.Str("a"), storage.Num(10 + week),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// ksDistance computes the two-sample Kolmogorov–Smirnov statistic
// sup|F_a − F_b| between two value samples.
func ksDistance(a, b []float64) float64 {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j, d := 0, 0, 0.0
	for i < len(as) && j < len(bs) {
		if as[i] <= bs[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// queryRun bundles the snippets of one parsed SQL query.
type queryRun struct {
	snips []*query.Snippet
}

func newQueryRun(t *testing.T, tb *storage.Table, sql string) *queryRun {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := query.Decompose(stmt, tb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snips []*query.Snippet
	for _, d := range decs {
		snips = append(snips, d.Snippets...)
	}
	return &queryRun{snips: snips}
}

// colValues extracts the first n values (n < 0 for all) of a numeric column.
func colValues(t *storage.Table, name string, n int) []float64 {
	col, ok := t.Schema().Lookup(name)
	if !ok {
		panic("missing column " + name)
	}
	vals := t.NumericCol(col)
	if n < 0 || n > len(vals) {
		n = len(vals)
	}
	return append([]float64(nil), vals[:n]...)
}

// prefixKS measures how far a sample prefix is from the full sample's
// distribution — the prefix-uniformity statistic online aggregation cares
// about (a uniform random layout keeps it near the sampling noise floor).
func prefixKS(data *storage.Table, frac float64) float64 {
	n := int(float64(data.Rows()) * frac)
	return ksDistance(colValues(data, "week", n), colValues(data, "week", -1))
}

// The headline property: streamed appends pile their subsamples at the
// sample tail, so prefixes stop being uniform; RebuildSample restores
// prefix-uniformity (KS distance between any prefix and the full sample
// drops back to the sampling noise floor) without changing the sample's
// content.
func TestRebuildRestoresPrefixUniformity(t *testing.T) {
	tb := buildTable(t, 12000) // week uniform on [0, 100)
	s, err := BuildSample(tb, 0.25, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, s, CachedCost)

	// Stream drifted batches: appended weeks concentrate in [80, 100], and
	// their subsamples all land at the tail.
	for i := 0; i < 6; i++ {
		if _, err := e.Append(driftedBatch(t, 1000, 80, 100, int64(50+i)), int64(500+i)); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Sample().Data
	sortedBefore := colValues(before, "week", -1)
	sort.Float64s(sortedBefore)

	// Tail-piled layout: early prefixes hold none of the drifted rows, so
	// they are visibly far from the full-sample distribution.
	dBefore := prefixKS(before, 0.5)
	if dBefore < 0.10 {
		t.Fatalf("test not discriminating: pre-rebuild prefix KS=%.3f, expected tail pile-up", dBefore)
	}

	gen, err := e.RebuildSample(99, DefaultRebuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || e.Acquire().SampleGen != 1 {
		t.Fatalf("generation=%d/%d want 1", gen, e.Acquire().SampleGen)
	}
	after := e.Sample().Data

	// Content is preserved: same multiset of week values, same metadata.
	sortedAfter := colValues(after, "week", -1)
	sort.Float64s(sortedAfter)
	if len(sortedBefore) != len(sortedAfter) {
		t.Fatalf("row count changed: %d -> %d", len(sortedBefore), len(sortedAfter))
	}
	for i := range sortedBefore {
		if sortedBefore[i] != sortedAfter[i] {
			t.Fatalf("content changed at sorted index %d: %v vs %v", i, sortedBefore[i], sortedAfter[i])
		}
	}
	if sa, sb := e.Sample(), s; sa.Fraction != sb.Fraction || sa.BatchSize != sb.BatchSize {
		t.Fatalf("sample metadata changed: %+v vs %+v", sa, sb)
	}
	if e.Sample().BaseRows != tb.Rows() {
		t.Fatalf("BaseRows=%d want %d", e.Sample().BaseRows, tb.Rows())
	}

	// Prefix-uniformity restored at several prefix lengths: the KS distance
	// must fall below the 95% two-sample critical value for these sizes
	// (~1.36·sqrt((n1+n2)/(n1·n2))) with a safety margin.
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		n1 := float64(int(float64(after.Rows()) * frac))
		n2 := float64(after.Rows())
		crit := 1.36 * math.Sqrt((n1+n2)/(n1*n2))
		if d := prefixKS(after, frac); d > crit {
			t.Fatalf("prefix %.0f%%: KS=%.4f exceeds critical %.4f — rebuild did not restore uniformity", frac*100, d, crit)
		}
	}
	// And the rebuild must beat the tail-piled layout decisively.
	if dAfter := prefixKS(after, 0.5); dAfter > dBefore/2 {
		t.Fatalf("rebuild barely helped: KS %.4f -> %.4f", dBefore, dAfter)
	}
}

// Replays across a rebuild epoch: a query pinned to generation g must
// replay float-identically through ViewAtGen(g, …) even after the sample
// has been re-laid-out (and appended to) since.
func TestViewAtGenReplayAcrossRebuild(t *testing.T) {
	tb := buildTable(t, 8000)
	s, err := BuildSample(tb, 0.25, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, s, CachedCost)
	snippets := []*queryRun{
		newQueryRun(t, tb, "SELECT AVG(val) FROM t WHERE week >= 10 AND week < 45"),
		newQueryRun(t, tb, "SELECT COUNT(*) FROM t WHERE week > 60"),
	}

	type served struct {
		gen        uint64
		baseRows   int
		sampleRows int
		answers    []float64
	}
	run := func(v *View) served {
		var ans []float64
		for _, q := range snippets {
			upd := v.RunToCompletion(q.snips)
			for i := range upd.Estimates {
				ans = append(ans, upd.Estimates[i].Value, upd.Estimates[i].StdErr)
			}
		}
		return served{gen: v.SampleGen, baseRows: v.BaseRows, sampleRows: v.SampleRows, answers: ans}
	}

	var history []served
	history = append(history, run(e.Acquire())) // gen 0, offline layout

	if _, err := e.Append(driftedBatch(t, 2000, 70, 100, 7), 70); err != nil {
		t.Fatal(err)
	}
	history = append(history, run(e.Acquire())) // gen 0, appended tail

	e.RebuildSample(101, DefaultRebuildOptions())
	history = append(history, run(e.Acquire())) // gen 1, shuffled

	if _, err := e.Append(driftedBatch(t, 1500, 0, 30, 8), 71); err != nil {
		t.Fatal(err)
	}
	history = append(history, run(e.Acquire())) // gen 1, appended again

	e.RebuildSample(102, DefaultRebuildOptions())
	history = append(history, run(e.Acquire())) // gen 2

	if len(history) != 5 {
		t.Fatal("history shape")
	}
	gens := map[uint64]bool{}
	for _, h := range history {
		gens[h.gen] = true
		v := e.ViewAtGen(h.gen, h.baseRows, h.sampleRows)
		if v == nil {
			t.Fatalf("ViewAtGen(%d, %d, %d) = nil", h.gen, h.baseRows, h.sampleRows)
		}
		rep := run(v)
		if len(rep.answers) != len(h.answers) {
			t.Fatalf("replay shape at gen %d", h.gen)
		}
		for i := range rep.answers {
			if rep.answers[i] != h.answers[i] {
				t.Fatalf("gen %d base=%d sample=%d: replay answer %d differs: served %v, replay %v",
					h.gen, h.baseRows, h.sampleRows, i, h.answers[i], rep.answers[i])
			}
		}
	}
	if len(gens) != 3 {
		t.Fatalf("exercised %d generations, want 3", len(gens))
	}
	// A generation that never existed yields nil.
	last := history[len(history)-1]
	if v := e.ViewAtGen(99, last.baseRows, last.sampleRows); v != nil {
		t.Fatal("ViewAtGen accepted a future generation")
	}
}

// A view pinned before a rebuild must be completely unaffected by it.
func TestRebuildInvisibleToPinnedView(t *testing.T) {
	tb := buildTable(t, 6000)
	s, err := BuildSample(tb, 0.3, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, s, CachedCost)
	q := newQueryRun(t, tb, "SELECT AVG(val) FROM t WHERE week < 50")
	pinned := e.Acquire()
	before := pinned.RunToCompletion(q.snips)
	e.RebuildSample(55, DefaultRebuildOptions())
	again := pinned.RunToCompletion(q.snips)
	if before.Estimates[0] != again.Estimates[0] {
		t.Fatalf("pinned view drifted across rebuild: %+v -> %+v", before.Estimates[0], again.Estimates[0])
	}
	fresh := e.Acquire()
	if fresh.SampleGen != 1 {
		t.Fatalf("fresh view gen=%d want 1", fresh.SampleGen)
	}
	if fresh == pinned {
		t.Fatal("Acquire returned the stale view after a rebuild")
	}
}

// The stratified rebuild produces value-clustered, zone-map-friendly
// blocks: after RebuildSample with a stratum column, each stratum's blocks
// span a narrow slice of the column's domain, while the row multiset is
// unchanged.
func TestRebuildClusteredLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a multi-block sample")
	}
	tb := buildTable(t, 90000)
	s, err := BuildSample(tb, 0.25, 0, 4) // ~22.5k rows ≈ 6 blocks
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, s, CachedCost)
	weekCol, _ := tb.Schema().Lookup("week")

	beforeSorted := colValues(e.Sample().Data, "week", -1)
	sort.Float64s(beforeSorted)

	if _, err := e.RebuildSample(77, partitionedLayout(tb, 4)); err != nil {
		t.Fatal(err)
	}
	ps := e.Sample().Parts
	var afterSorted []float64
	for st := 0; st < ps.NumStrata(); st++ {
		afterSorted = append(afterSorted, colValues(ps.StrataTables()[st], "week", -1)...)
	}
	sort.Float64s(afterSorted)
	if len(afterSorted) != len(beforeSorted) || e.Sample().Data.Rows() != 0 {
		t.Fatalf("rebuild laid out %d rows (+%d tail), want %d", len(afterSorted), e.Sample().Data.Rows(), len(beforeSorted))
	}
	for i := range beforeSorted {
		if beforeSorted[i] != afterSorted[i] {
			t.Fatal("stratified rebuild changed the sample content")
		}
	}

	// Every block must span a narrow slice of the domain: 56 quantile
	// strata of a uniform [0,100) column cover ≈ 100/56 ≈ 1.8 each.
	for st := 0; st < ps.NumStrata(); st++ {
		stratum := ps.StrataTables()[st]
		for b := 0; b < stratum.NumBlocks(); b++ {
			if z := stratum.NumZone(weekCol, b); z.Max-z.Min > 5 {
				t.Fatalf("stratum %d block %d spans %.1f of the domain; not clustered", st, b, z.Max-z.Min)
			}
		}
	}
}
