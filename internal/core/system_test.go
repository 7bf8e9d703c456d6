package core

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/aqp"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// systemFixture builds a System over a sales-like relation with structure:
// revenue ≈ 50 + 2·week + region offset.
func systemFixture(t testing.TB, rows int, frac float64) *System {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("sales", schema)
	rng := randx.New(42)
	offsets := map[string]float64{"east": 0, "west": 10}
	regions := []string{"east", "west"}
	for i := 0; i < rows; i++ {
		w := rng.Uniform(0, 52)
		rg := regions[rng.Intn(2)]
		rev := 50 + 2*w + offsets[rg] + rng.Normal(0, 3)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(w), storage.Str(rg), storage.Num(rev),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sample, err := aqp.BuildSample(tb, frac, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), Config{})
}

func TestSystemExecuteSimpleQuery(t *testing.T) {
	s := systemFixture(t, 20000, 0.2)
	res, err := s.ExecuteWithExact("SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Supported || len(res.Rows) != 1 || len(res.Rows[0].Cells) != 1 {
		t.Fatalf("result shape: %+v", res)
	}
	cell := res.Rows[0].Cells[0]
	// Expected ≈ 50 + 2·15 + 5 = 85.
	if math.Abs(cell.Exact-85) > 3 {
		t.Fatalf("exact=%v", cell.Exact)
	}
	if math.Abs(cell.Improved.Value-cell.Exact) > 5*cell.Improved.StdErr+1 {
		t.Fatalf("improved=%v exact=%v stderr=%v", cell.Improved.Value, cell.Exact, cell.Improved.StdErr)
	}
	if res.SimTime <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestSystemGroupByAndCount(t *testing.T) {
	s := systemFixture(t, 10000, 0.5)
	res, err := s.ExecuteWithExact("SELECT region, COUNT(*), SUM(revenue) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups=%d", len(res.Rows))
	}
	totalCount := 0.0
	for _, row := range res.Rows {
		if len(row.Cells) != 2 {
			t.Fatalf("cells=%d", len(row.Cells))
		}
		cnt := row.Cells[0]
		totalCount += cnt.Improved.Value
		if math.Abs(cnt.Improved.Value-cnt.Exact) > 4*cnt.Improved.StdErr+100 {
			t.Fatalf("count=%v exact=%v", cnt.Improved.Value, cnt.Exact)
		}
		sum := row.Cells[1]
		rel := math.Abs(sum.Improved.Value-sum.Exact) / sum.Exact
		if rel > 0.1 {
			t.Fatalf("sum rel err=%v", rel)
		}
	}
	if math.Abs(totalCount-10000) > 500 {
		t.Fatalf("counts sum to %v", totalCount)
	}
}

// exactOracle is the reference for ExecuteWithExact's exact cells: each
// result row's group decomposed on its own, every snippet evaluated exactly
// on the base relation of the view res names, and recomposed.
func exactOracle(t *testing.T, s *System, sql string, res *Result) [][]float64 {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	view := s.Engine().ViewAtGen(res.SampleGen, res.BaseRows, res.SampleRows)
	table := view.Base
	out := make([][]float64, len(res.Rows))
	for ri, row := range res.Rows {
		decs, err := query.Decompose(stmt, table, [][]query.GroupValue{row.Group}, s.cfg.Nmax)
		if err != nil {
			t.Fatal(err)
		}
		d := decs[0]
		exact := make([]query.ScalarEstimate, len(d.Snippets))
		for i, sn := range d.Snippets {
			exact[i] = query.ScalarEstimate{Value: view.Exact(sn)}
		}
		for _, ua := range d.Aggregates {
			av, fr := pick(exact, 0, ua)
			cell, err := query.ComposeAggregate(ua.Agg, av, fr, table.Rows())
			if err != nil {
				t.Fatal(err)
			}
			out[ri] = append(out[ri], cell.Value)
		}
	}
	return out
}

// TestExecuteWithExactMatchesOracle: ExecuteWithExact's exact cells equal
// the per-row oracle's bit for bit — for a flat statement, a categorical
// GROUP BY (discovery kernel), a numeric GROUP BY past the group cap
// (GroupRows), and grouped statements no row matches (the single nil-group
// decomposition) — on first sight and on a memo reuse, before and after an
// append.
func TestExecuteWithExactMatchesOracle(t *testing.T) {
	sys := memoFixture(t, Config{})
	stmts := []string{
		"SELECT AVG(revenue), COUNT(*) FROM sales WHERE week BETWEEN 10 AND 20",
		"SELECT region, AVG(revenue), COUNT(*), SUM(revenue) FROM sales WHERE week BETWEEN 5 AND 40 GROUP BY region",
		"SELECT tier, AVG(revenue), SUM(revenue) FROM sales GROUP BY tier",
		"SELECT region, COUNT(*), AVG(revenue) FROM sales WHERE week > 1000 GROUP BY region",
		"SELECT tier, COUNT(*), SUM(revenue) FROM sales WHERE week > 1000 GROUP BY tier",
	}
	check := func(step string) {
		t.Helper()
		for _, sql := range stmts {
			for _, pass := range []string{"first", "repeat"} {
				label := step + " " + pass + ": " + sql
				res, err := sys.ExecuteWithExact(sql)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := exactOracle(t, sys, sql, res)
				for ri, row := range res.Rows {
					if len(row.Cells) != len(want[ri]) {
						t.Fatalf("%s row %d: %d cells, oracle %d", label, ri, len(row.Cells), len(want[ri]))
					}
					for ci, cell := range row.Cells {
						if math.Float64bits(cell.Exact) != math.Float64bits(want[ri][ci]) {
							t.Fatalf("%s row %d (%v) cell %d: exact %v, oracle %v", label, ri, row.Group, ci, cell.Exact, want[ri][ci])
						}
					}
				}
			}
		}
	}
	check("boot")
	if _, err := sys.Append(memoBatch(t, 1200, 9, 5, 45, []string{"east", "west"})); err != nil {
		t.Fatal(err)
	}
	check("after an append")
}

func TestSystemUnsupportedBypass(t *testing.T) {
	s := systemFixture(t, 1000, 0.5)
	res, err := s.Execute("SELECT COUNT(*) FROM sales WHERE week = 1 OR week = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Supported || len(res.Rows) != 0 {
		t.Fatalf("unsupported query produced rows: %+v", res)
	}
	if s.Stats.Total != 1 || s.Stats.Supported != 0 || s.Stats.Aggregate != 1 {
		t.Fatalf("stats=%+v", s.Stats)
	}
}

func TestSystemLearningImprovesOverWorkload(t *testing.T) {
	// Process a first half of a workload, train, then verify that on the
	// second half Verdict's improved errors beat the raw errors on average
	// — the experiment design of §8.3 in miniature.
	s := systemFixture(t, 30000, 0.05)
	rng := randx.New(9)
	mkQuery := func() string {
		lo := rng.Uniform(0, 40)
		return "SELECT AVG(revenue) FROM sales WHERE week BETWEEN " +
			formatF(lo) + " AND " + formatF(lo+rng.Uniform(4, 12))
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Execute(mkQuery()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verdict().Train(); err != nil {
		t.Fatal(err)
	}
	var rawErr, impErr float64
	n := 0
	for i := 0; i < 40; i++ {
		res, err := s.ExecuteWithExact(mkQuery())
		if err != nil {
			t.Fatal(err)
		}
		cell := res.Rows[0].Cells[0]
		rawErr += math.Abs(cell.Raw.Value - cell.Exact)
		impErr += math.Abs(cell.Improved.Value - cell.Exact)
		n++
	}
	t.Logf("avg raw err=%.4f improved err=%.4f (n=%d)", rawErr/float64(n), impErr/float64(n), n)
	if impErr >= rawErr {
		t.Fatalf("learning did not reduce error: improved=%v raw=%v", impErr/float64(n), rawErr/float64(n))
	}
}

func TestSystemTimeBound(t *testing.T) {
	base := systemFixture(t, 20000, 0.5)
	// Slow tier so the budget actually limits the scanned prefix.
	slow := aqp.CostModel{Name: "slow", PlanOverhead: 100 * 1e6, RowsPerSecond: 10000}
	s := NewSystem(aqp.NewEngine(base.Engine().Base(), base.Engine().Sample(), slow), Config{})
	short, err := s.ExecuteTimeBound("SELECT AVG(revenue) FROM sales", 500*1e6) // 500ms
	if err != nil {
		t.Fatal(err)
	}
	long, err := s.ExecuteTimeBound("SELECT AVG(revenue) FROM sales", 1e9) // 1s
	if err != nil {
		t.Fatal(err)
	}
	if short.SimTime >= long.SimTime {
		t.Fatalf("time bounds not respected: %v vs %v", short.SimTime, long.SimTime)
	}
	if short.Rows[0].Cells[0].Raw.StdErr <= long.Rows[0].Cells[0].Raw.StdErr {
		t.Fatal("longer budget should reduce raw error")
	}
}

func formatF(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// TestSystemTheorem1AtSQLSurface checks Theorem 1 end to end: for every
// aggregate cell of every query in a random workload, Verdict's improved
// expected error never exceeds the raw expected error.
func TestSystemTheorem1AtSQLSurface(t *testing.T) {
	s := systemFixture(t, 15000, 0.2)
	rng := randx.New(17)
	mk := func() string {
		switch rng.Intn(3) {
		case 0:
			lo := rng.Uniform(0, 40)
			return "SELECT AVG(revenue) FROM sales WHERE week BETWEEN " +
				formatF(lo) + " AND " + formatF(lo+rng.Uniform(3, 15))
		case 1:
			lo := rng.Uniform(0, 45)
			return "SELECT COUNT(*), SUM(revenue) FROM sales WHERE week > " + formatF(lo)
		default:
			return "SELECT region, AVG(revenue) FROM sales WHERE week < " +
				formatF(rng.Uniform(10, 50)) + " GROUP BY region"
		}
	}
	for i := 0; i < 35; i++ {
		res, err := s.Execute(mk())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for _, c := range row.Cells {
				if c.Improved.StdErr > c.Raw.StdErr*(1+1e-9) {
					t.Fatalf("Theorem 1 violated for %s: improved %v > raw %v (query %d)",
						c.Agg, c.Improved.StdErr, c.Raw.StdErr, i)
				}
			}
		}
		if i == 15 {
			if err := s.Verdict().Train(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNewSystemWithVerdict gives a new System over the same engine the
// learning state of another's snapshot (LoadSynopsis) and confirms
// identical inference behaviour.
func TestNewSystemWithVerdict(t *testing.T) {
	s := systemFixture(t, 10000, 0.3)
	for i := 0; i < 10; i++ {
		lo := float64(i * 5)
		sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN " +
			formatF(lo) + " AND " + formatF(lo+6)
		if _, err := s.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verdict().Train(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Verdict().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewSystem(s.Engine(), Config{})
	if err := restored.LoadSynopsis(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Verdict().SnippetCount() != s.Verdict().SnippetCount() {
		t.Fatalf("snippets: %d vs %d", restored.Verdict().SnippetCount(), s.Verdict().SnippetCount())
	}
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 12.00 AND 19.00"
	r1, err := s.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restored.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := r1.Rows[0].Cells[0], r2.Rows[0].Cells[0]
	if math.Abs(c1.Improved.Value-c2.Improved.Value) > 1e-9 ||
		math.Abs(c1.Improved.StdErr-c2.Improved.StdErr) > 1e-9 {
		t.Fatalf("restored system diverged: %+v vs %+v", c1.Improved, c2.Improved)
	}
}

// TestExecuteViewEmptySample: on a zero-row sample, a replay through
// ExecuteView must answer exactly what Execute answered — one invalid raw
// estimate per snippet, not an empty update.
func TestExecuteViewEmptySample(t *testing.T) {
	s := systemFixture(t, 0, 0.2)
	for _, sql := range []string{
		"SELECT AVG(revenue) FROM sales",
		"SELECT COUNT(*) FROM sales WHERE week < 20",
		"SELECT region, AVG(revenue), COUNT(*) FROM sales GROUP BY region",
	} {
		want, err := s.Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := s.ExecuteView(s.Engine().Acquire(), sql)
		if err != nil {
			t.Fatalf("%s: replay: %v", sql, err)
		}
		if len(got.Rows) != len(want.Rows) || len(want.Rows) == 0 {
			t.Fatalf("%s: replay has %d rows, Execute %d", sql, len(got.Rows), len(want.Rows))
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: replay rows %+v, Execute rows %+v", sql, got.Rows, want.Rows)
		}
	}
}
