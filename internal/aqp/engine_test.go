package aqp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// buildTable makes a relation with a known mean structure: measure =
// 10 + week, weeks 0..99 uniform, two regions.
func buildTable(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	rng := randx.New(7)
	for i := 0; i < rows; i++ {
		week := rng.Uniform(0, 100)
		region := "a"
		if rng.Bool(0.5) {
			region = "b"
		}
		val := 10 + week + rng.Normal(0, 1)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week), storage.Str(region), storage.Num(val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func snippetFor(t testing.TB, tb *storage.Table, sql string) *query.Snippet {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := query.Decompose(stmt, tb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return decs[0].Snippets[0]
}

func TestBuildSampleProperties(t *testing.T) {
	tb := buildTable(t, 10000)
	s, err := BuildSample(tb, 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Data.Rows() != 1000 {
		t.Fatalf("sample rows=%d", s.Data.Rows())
	}
	if s.BaseRows != 10000 {
		t.Fatalf("base rows=%d", s.BaseRows)
	}
	if s.Batches() != DefaultBatches {
		t.Fatalf("batches=%d", s.Batches())
	}
	// Sample mean must approximate the base mean.
	col, _ := tb.Schema().Lookup("val")
	base := tb.Stats(col).Mean
	samp := s.Data.Stats(col).Mean
	if math.Abs(base-samp) > 3 {
		t.Fatalf("sample mean %v far from base %v", samp, base)
	}
	if _, err := BuildSample(tb, 0, 0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := BuildSample(tb, 1.5, 0, 1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestBatchBounds(t *testing.T) {
	tb := buildTable(t, 105)
	s, err := BuildSample(tb, 1.0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches() != 11 {
		t.Fatalf("batches=%d", s.Batches())
	}
	lo, hi := s.BatchBounds(10)
	if lo != 100 || hi != 105 {
		t.Fatalf("last batch=(%d,%d)", lo, hi)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	tb := buildTable(t, 2000)
	sample, err := BuildSample(tb, 1.0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)

	avgSn := snippetFor(t, tb, "SELECT AVG(val) FROM t WHERE week >= 20 AND week < 40")
	exact := e.Exact(avgSn)
	// E[val | 20<=week<40] = 10 + 30 = 40 approximately.
	if math.Abs(exact-40) > 1 {
		t.Fatalf("exact avg=%v", exact)
	}

	freqSn := snippetFor(t, tb, "SELECT COUNT(*) FROM t WHERE week >= 20 AND week < 40")
	frac := e.Exact(freqSn)
	if math.Abs(frac-0.2) > 0.05 {
		t.Fatalf("exact freq=%v", frac)
	}
}

func TestOnlineAggregationConverges(t *testing.T) {
	tb := buildTable(t, 20000)
	sample, err := BuildSample(tb, 0.5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t WHERE week < 50")
	exact := e.Exact(sn)

	var errs []float64
	var stderrs []float64
	view := e.Acquire()
	ps := view.Progressive([]*query.Snippet{sn})
	for _, end := range batchEnds(view) {
		if u := ps.Step(end); u.Valid[0] {
			errs = append(errs, math.Abs(u.Estimates[0].Value-exact))
			stderrs = append(stderrs, u.Estimates[0].StdErr)
		}
	}
	if len(errs) < 10 {
		t.Fatalf("too few updates: %d", len(errs))
	}
	// Standard errors must decrease monotonically (more data each batch).
	for i := 1; i < len(stderrs); i++ {
		if stderrs[i] > stderrs[i-1]*1.05 {
			t.Fatalf("stderr grew: %v -> %v", stderrs[i-1], stderrs[i])
		}
	}
	// Final estimate should be close to exact.
	if errs[len(errs)-1] > 0.5 {
		t.Fatalf("final error=%v", errs[len(errs)-1])
	}
	// Final stderr should be plausible (same order as final error).
	if stderrs[len(stderrs)-1] > 1 {
		t.Fatalf("final stderr=%v", stderrs[len(stderrs)-1])
	}
}

func TestOnlineAggregationEarlyStop(t *testing.T) {
	tb := buildTable(t, 5000)
	sample, err := BuildSample(tb, 1.0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t")
	view := e.Acquire()
	ps := view.Progressive([]*query.Snippet{sn})
	ends := batchEnds(view)
	steps := 0
	var last Increment
	for _, end := range ends {
		last = ps.Step(end)
		if steps++; steps == 3 {
			break
		}
	}
	if steps != 3 {
		t.Fatalf("early stop ignored: steps=%d", steps)
	}
	// Stopping after three batches leaves the rest of the sample unread.
	if last.Rows != ends[2] || last.Seq != 2 || last.Final {
		t.Fatalf("third increment: rows %d seq %d final %v, want rows %d seq 2 not final", last.Rows, last.Seq, last.Final, ends[2])
	}
	if ps.Scanned() >= ps.Total() {
		t.Fatalf("early stop scanned %d of %d rows", ps.Scanned(), ps.Total())
	}
}

func TestCLTErrorCalibration(t *testing.T) {
	// Across many resamples, the actual error should be below 2·stderr
	// roughly 95% of the time.
	tb := buildTable(t, 30000)
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t WHERE week < 30")
	sampleFull, err := BuildSample(tb, 1.0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewEngine(tb, sampleFull, CachedCost).Exact(sn)

	covered, total := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		s, err := BuildSample(tb, 0.02, 0, 100+seed)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(tb, s, CachedCost)
		u := e.RunToCompletion([]*query.Snippet{sn})
		if !u.Valid[0] {
			continue
		}
		total++
		if math.Abs(u.Estimates[0].Value-exact) <= 1.96*u.Estimates[0].StdErr {
			covered++
		}
	}
	if total < 50 {
		t.Fatalf("too few valid runs: %d", total)
	}
	frac := float64(covered) / float64(total)
	if frac < 0.85 {
		t.Fatalf("CLT coverage too low: %v", frac)
	}
}

func TestFreqEstimateUnbiased(t *testing.T) {
	tb := buildTable(t, 20000)
	sn := snippetFor(t, tb, "SELECT COUNT(*) FROM t WHERE region = 'a'")
	sampleFull, _ := BuildSample(tb, 1.0, 0, 6)
	exact := NewEngine(tb, sampleFull, CachedCost).Exact(sn)

	var sum float64
	const reps = 40
	for seed := int64(0); seed < reps; seed++ {
		s, _ := BuildSample(tb, 0.05, 0, 200+seed)
		e := NewEngine(tb, s, CachedCost)
		u := e.RunToCompletion([]*query.Snippet{sn})
		sum += u.Estimates[0].Value
	}
	if math.Abs(sum/reps-exact) > 0.01 {
		t.Fatalf("freq biased: mean=%v exact=%v", sum/reps, exact)
	}
}

func TestTimeBound(t *testing.T) {
	tb := buildTable(t, 50000)
	sample, err := BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	cost := CostModel{Name: "test", PlanOverhead: 100 * time.Millisecond, RowsPerSecond: 10000}
	e := NewEngine(tb, sample, cost)
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t")

	view := e.Acquire()
	within := func(budget time.Duration) Increment {
		return view.EvalPrefix([]*query.Snippet{sn}, view.RowsWithin(budget))
	}
	short := within(600 * time.Millisecond)
	long := within(2 * time.Second)
	if short.Rows >= long.Rows {
		t.Fatalf("rows: short=%d long=%d", short.Rows, long.Rows)
	}
	if short.Rows != 5000 {
		t.Fatalf("rows within 0.5s at 10k rows/s = %d, want 5000", short.Rows)
	}
	if !short.Valid[0] || !long.Valid[0] {
		t.Fatal("estimates invalid")
	}
	if long.Estimates[0].StdErr >= short.Estimates[0].StdErr {
		t.Fatal("more time should reduce error")
	}
	// Budget below plan overhead scans nothing.
	none := within(50 * time.Millisecond)
	if none.Rows != 0 || none.Valid[0] {
		t.Fatalf("sub-overhead budget scanned %d rows", none.Rows)
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{PlanOverhead: time.Second, RowsPerSecond: 1000, VirtualRowFactor: 10}
	if got := c.ScanTime(100); got != time.Second {
		t.Fatalf("ScanTime=%v", got) // 100 rows × 10 virtual = 1000 → 1s
	}
	if got := c.QueryTime(100); got != 2*time.Second {
		t.Fatalf("QueryTime=%v", got)
	}
	if got := c.RowsWithin(3 * time.Second); got != 200 {
		t.Fatalf("RowsWithin=%d", got)
	}
	if got := c.RowsWithin(time.Millisecond); got != 0 {
		t.Fatalf("RowsWithin tiny=%d", got)
	}
	if got := c.ScanTime(0); got != 0 {
		t.Fatalf("ScanTime(0)=%v", got)
	}
	s := CachedCost.Scaled(50)
	if s.VirtualRowFactor != 50 || CachedCost.VirtualRowFactor != 1 {
		t.Fatal("Scaled must copy")
	}
}

func TestGroupRows(t *testing.T) {
	tb := buildTable(t, 1000)
	sample, _ := BuildSample(tb, 1.0, 0, 8)
	e := NewEngine(tb, sample, CachedCost)
	rcol, _ := tb.Schema().Lookup("region")
	groups, err := e.GroupRows([]int{rcol}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups=%d", len(groups))
	}
	// Deterministic order.
	if groups[0][0].Str != "a" || groups[1][0].Str != "b" {
		t.Fatalf("group order: %v", groups)
	}
	// Ungrouped: one empty group.
	g2, err := e.GroupRows(nil, nil)
	if err != nil || len(g2) != 1 || g2[0] != nil {
		t.Fatalf("ungrouped=%v err=%v", g2, err)
	}

	// ("a|b", "c") and ("a", "b|c") join to the same "|a|b|c" text but are
	// two groups, reported in the same order by GroupRows (forced here by
	// the numeric grouping column n) and by the discovery scan.
	sep := storage.NewTable("s", storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "y", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "n", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "v", Kind: storage.Numeric, Role: storage.Measure},
	}))
	for i := 0; i < 20; i++ {
		x, y := "a|b", "c"
		if i%2 == 1 {
			x, y = "a", "b|c"
		}
		if err := sep.AppendRow([]storage.Value{storage.Str(x), storage.Str(y), storage.Num(1), storage.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Table order, so ("a|b", "c") is seen first and only the tie-break
	// puts ("a", "b|c") ahead of it.
	sepSample := &Sample{Data: sep, Fraction: 1, BatchSize: sep.Rows(), BaseRows: sep.Rows()}
	sv := NewEngine(sep, sepSample, CachedCost).Acquire()
	groups, err = sv.GroupRows([]int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	discovered := sv.GroupedRunToCompletion(specFor(t, sep, "SELECT x, y, COUNT(*) FROM s GROUP BY x, y"), 0).Groups
	if len(groups) != 2 || len(discovered) != 2 {
		t.Fatalf("separator groups: GroupRows %v, discovery %v", groups, discovered)
	}
	for g := range groups {
		if groups[g][0] != discovered[g][0] || groups[g][1] != discovered[g][1] {
			t.Fatalf("separator group order: GroupRows %v, discovery %v", groups, discovered)
		}
	}
	if groups[0][0].Str != "a" {
		t.Fatalf("separator tie not broken value by value: %v", groups)
	}
}

func TestSanitize(t *testing.T) {
	got := Sanitize(query.ScalarEstimate{Value: math.NaN(), StdErr: math.Inf(1)})
	if got.Value != 0 || got.StdErr != math.MaxFloat64 {
		t.Fatalf("sanitize=%+v", got)
	}
	keep := Sanitize(query.ScalarEstimate{Value: 2, StdErr: 0.5})
	if keep.Value != 2 || keep.StdErr != 0.5 {
		t.Fatal("sanitize altered good estimate")
	}
}

func TestSamplePrefixUniformProperty(t *testing.T) {
	// Any prefix of the shuffled sample must estimate the population mean
	// without systematic bias (property over seeds).
	tb := buildTable(t, 5000)
	col, _ := tb.Schema().Lookup("val")
	base := tb.Stats(col).Mean
	f := func(seed int64) bool {
		s, err := BuildSample(tb, 0.5, 0, seed)
		if err != nil {
			return false
		}
		// First 10% of the sample.
		n := s.Data.Rows() / 10
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.Data.NumAt(i, col)
		}
		return math.Abs(sum/float64(n)-base) < 5
	}
	// Pinned source: with a time-seeded generator the 5-unit tolerance
	// fails for a small fraction of seeds, making the suite flaky.
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParallelScanMatchesSequential(t *testing.T) {
	// A wide snippet set must produce exactly the same estimates as narrow
	// sets evaluated one by one.
	tb := buildTable(t, 8000)
	sample, err := BuildSample(tb, 0.5, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	var snips []*query.Snippet
	for i := 0; i < 20; i++ {
		lo := float64(i * 5)
		sql := "SELECT AVG(val) FROM t WHERE week >= " + strconv.Itoa(i*4) + " AND week < " + strconv.Itoa(i*4+20)
		_ = lo
		snips = append(snips, snippetFor(t, tb, sql))
	}
	wide := e.RunToCompletion(snips)
	for i, sn := range snips {
		single := e.RunToCompletion([]*query.Snippet{sn})
		if wide.Valid[i] != single.Valid[0] {
			t.Fatalf("snippet %d validity differs", i)
		}
		if !wide.Valid[i] {
			continue
		}
		if wide.Estimates[i] != single.Estimates[0] {
			t.Fatalf("snippet %d: wide=%+v single=%+v", i, wide.Estimates[i], single.Estimates[0])
		}
	}
}
