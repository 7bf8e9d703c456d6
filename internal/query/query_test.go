package query

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// salesTable builds a small denormalized relation used across tests.
func salesTable(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "price", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
		{Name: "discount", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("sales", schema)
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 100; i++ {
		if err := tb.AppendRow([]storage.Value{
			storage.Num(float64(i % 10)),
			storage.Num(float64(i) / 10),
			storage.Str(regions[i%4]),
			storage.Num(float64(100 + i)),
			storage.Num(0.1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func parse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	s, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckSupported(t *testing.T) {
	good := []string{
		"SELECT AVG(revenue) FROM sales",
		"SELECT COUNT(*) FROM sales WHERE week > 3",
		"SELECT region, SUM(revenue), AVG(discount) FROM sales WHERE week BETWEEN 1 AND 5 GROUP BY region",
		"SELECT SUM(revenue * discount) FROM sales WHERE region IN ('east', 'west')",
		"SELECT COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 10",
		"SELECT SUM(l.price) FROM lineitem l JOIN orders o ON l.okey = o.okey WHERE o.status = 'F'",
	}
	for _, sql := range good {
		s := Check(parse(t, sql))
		if !s.OK {
			t.Errorf("%q should be supported; reasons=%v", sql, s.Reasons)
		}
		if !s.HasAggregate {
			t.Errorf("%q should count as aggregate query", sql)
		}
	}
}

func TestCheckUnsupported(t *testing.T) {
	cases := []struct {
		sql    string
		reason string
	}{
		{"SELECT week FROM sales", "no supported aggregate"},
		{"SELECT MIN(revenue) FROM sales", "MIN"},
		{"SELECT MAX(revenue) FROM sales", "MAX"},
		{"SELECT COUNT(DISTINCT region) FROM sales", "DISTINCT"},
		{"SELECT COUNT(*) FROM sales WHERE week = 1 OR week = 2", "disjunction"},
		{"SELECT COUNT(*) FROM sales WHERE region LIKE '%Apple%'", "textual filter"},
		{"SELECT COUNT(*) FROM sales WHERE week IN (SELECT week FROM other)", "nested"},
		{"SELECT COUNT(*) FROM (SELECT * FROM sales) s", "nested"},
		{"SELECT AVG(revenue) FROM sales WHERE week = price", "column-to-column"},
		{"SELECT week, COUNT(*) FROM sales GROUP BY region", "not in GROUP BY"},
		{"SELECT COUNT(*) FROM sales WHERE NOT week BETWEEN 1 AND 2", "NOT"},
	}
	for _, c := range cases {
		s := Check(parse(t, c.sql))
		if s.OK {
			t.Errorf("%q should be unsupported", c.sql)
			continue
		}
		found := false
		for _, r := range s.Reasons {
			if strings.Contains(r, c.reason) {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: reasons %v lack %q", c.sql, s.Reasons, c.reason)
		}
	}
}

func TestCheckAggregateDenominator(t *testing.T) {
	// A non-aggregate query is unsupported AND not an aggregate query —
	// Table 3 excludes it from the denominator.
	s := Check(parse(t, "SELECT week FROM sales WHERE price > 2"))
	if s.OK || s.HasAggregate {
		t.Fatalf("plain scan misclassified: %+v", s)
	}
	// MIN/MAX queries count as aggregate queries but are unsupported —
	// exactly the "2 queries with min or max" in the paper's TPC-H count.
	s = Check(parse(t, "SELECT MIN(revenue) FROM sales"))
	if s.OK || !s.HasAggregate {
		t.Fatalf("MIN query misclassified: %+v", s)
	}
}

func TestBindRegionNumericRanges(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT AVG(revenue) FROM sales WHERE week > 2 AND week <= 7 AND price BETWEEN 1 AND 4")
	g, err := BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	wcol, _ := tb.Schema().Lookup("week")
	r := g.NumRangeOf(wcol, tb)
	if r.Lo != 2 || !r.LoOpen || r.Hi != 7 || r.HiOpen {
		t.Fatalf("week range=%+v", r)
	}
	pcol, _ := tb.Schema().Lookup("price")
	pr := g.NumRangeOf(pcol, tb)
	if pr.Lo != 1 || pr.Hi != 4 || pr.LoOpen || pr.HiOpen {
		t.Fatalf("price range=%+v", pr)
	}
	// Unconstrained dimension defaults to the domain.
	if _, ok := g.NumConstraints()[pcol]; !ok {
		t.Fatal("price should be constrained")
	}
}

func TestBindRegionDomainSubstitution(t *testing.T) {
	tb := salesTable(t)
	g, err := BindRegion(nil, tb)
	if err != nil {
		t.Fatal(err)
	}
	wcol, _ := tb.Schema().Lookup("week")
	r := g.NumRangeOf(wcol, tb)
	if r.Lo != 0 || r.Hi != 9 {
		t.Fatalf("domain substitution wrong: %+v", r)
	}
}

func TestBindRegionCategorical(t *testing.T) {
	tb := salesTable(t)
	rcol, _ := tb.Schema().Lookup("region")

	stmt := parse(t, "SELECT COUNT(*) FROM sales WHERE region IN ('east', 'west')")
	g, err := BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CatSetOf(rcol).Size(tb.DictOf(rcol).Size()); got != 2 {
		t.Fatalf("IN set size=%d", got)
	}

	stmt = parse(t, "SELECT COUNT(*) FROM sales WHERE region = 'east'")
	g, err = BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CatSetOf(rcol).Size(4); got != 1 {
		t.Fatalf("eq set size=%d", got)
	}

	stmt = parse(t, "SELECT COUNT(*) FROM sales WHERE region <> 'east'")
	g, err = BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CatSetOf(rcol).Size(4); got != 3 {
		t.Fatalf("neq set size=%d", got)
	}

	stmt = parse(t, "SELECT COUNT(*) FROM sales WHERE region NOT IN ('east', 'west')")
	g, err = BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CatSetOf(rcol).Size(4); got != 2 {
		t.Fatalf("not-in set size=%d", got)
	}
}

func TestBindRegionUnknownValue(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT COUNT(*) FROM sales WHERE region = 'mars'")
	g, err := BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	if g.PruneBlock(tb, 0) != BlockEmpty || len(g.MatchBlock(tb, 0, tb.Rows(), nil)) != 0 {
		t.Fatal("unknown categorical value should produce empty region")
	}
}

func TestBindRegionErrors(t *testing.T) {
	tb := salesTable(t)
	bad := []string{
		"SELECT COUNT(*) FROM sales WHERE week = 1 OR week = 2",
		"SELECT COUNT(*) FROM sales WHERE region > 'a'",
		"SELECT COUNT(*) FROM sales WHERE revenue > 5",  // measure in predicate
		"SELECT COUNT(*) FROM sales WHERE week <> 3",    // numeric <>
		"SELECT COUNT(*) FROM sales WHERE week IN (1)",  // IN on numeric
		"SELECT COUNT(*) FROM sales WHERE nosuch = 'x'", // unknown column
	}
	for _, sql := range bad {
		stmt := parse(t, sql)
		if _, err := BindRegion(stmt.Where, tb); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: err=%v, want ErrUnsupported", sql, err)
		}
	}
}

func TestRegionMatchesAgainstBruteForce(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT COUNT(*) FROM sales WHERE week >= 3 AND week < 8 AND region IN ('east','north')")
	g, err := BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	wcol, _ := tb.Schema().Lookup("week")
	rcol, _ := tb.Schema().Lookup("region")
	for row := 0; row < tb.Rows(); row++ {
		w := tb.NumAt(row, wcol)
		rg := tb.StrAt(row, rcol)
		want := w >= 3 && w < 8 && (rg == "east" || rg == "north")
		if got := g.Matches(tb, row); got != want {
			t.Fatalf("row %d: match=%v want %v (week=%v region=%v)", row, got, want, w, rg)
		}
	}
}

func TestRegionKey(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 2 AND 6 AND price <= 5")
	g, err := BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	key := g.Key(tb)
	if !strings.Contains(key, "week:[2,6]") || !strings.Contains(key, "price:[0,5]") {
		t.Fatalf("key=%q", key)
	}
	// Unconstrained region.
	g2, _ := BindRegion(nil, tb)
	if g2.Key(tb) != "|*" {
		t.Fatalf("empty key=%q", g2.Key(tb))
	}
}

func TestCatSetOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dict := 1 + r.Intn(20)
		mk := func() CatSet {
			if r.Intn(4) == 0 {
				return CatSet{}
			}
			var codes []int32
			for c := 0; c < dict; c++ {
				if r.Intn(2) == 0 {
					codes = append(codes, int32(c))
				}
			}
			if codes == nil {
				codes = []int32{}
			}
			return CatSet{Codes: codes}
		}
		a, b := mk(), mk()
		// Overlap is symmetric and bounded by both sizes.
		ab := a.OverlapCount(b, dict)
		ba := b.OverlapCount(a, dict)
		if ab != ba {
			return false
		}
		if ab > a.Size(dict) || ab > b.Size(dict) {
			return false
		}
		// Intersection size equals overlap count.
		inter := intersectCat(a, b)
		return inter.Size(dict) == ab
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeFigure3(t *testing.T) {
	// The paper's Figure 3: one query with AVG(A2), SUM(A3) grouped by A1
	// with two group values decomposes into 2 groups × aggregates.
	tb := salesTable(t)
	stmt := parse(t, "SELECT region, AVG(revenue), SUM(discount) FROM sales WHERE week > 2 GROUP BY region")
	rcol, _ := tb.Schema().Lookup("region")
	groups := [][]GroupValue{
		{{Col: rcol, Str: "east"}},
		{{Col: rcol, Str: "west"}},
	}
	decs, err := Decompose(stmt, tb, groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 2 {
		t.Fatalf("decompositions=%d", len(decs))
	}
	for _, d := range decs {
		// AVG(revenue) → 1 avg snippet; SUM(discount) → avg(discount)+freq.
		if len(d.Snippets) != 3 {
			t.Fatalf("snippets=%d want 3", len(d.Snippets))
		}
		if len(d.Aggregates) != 2 {
			t.Fatalf("aggregates=%d", len(d.Aggregates))
		}
		if d.Aggregates[0].Agg != sqlparse.AggAvg || d.Aggregates[0].Freq != -1 {
			t.Fatalf("agg0=%+v", d.Aggregates[0])
		}
		if d.Aggregates[1].Agg != sqlparse.AggSum || d.Aggregates[1].Freq < 0 || d.Aggregates[1].Avg < 0 {
			t.Fatalf("agg1=%+v", d.Aggregates[1])
		}
		// Group equality folded into region.
		snip := d.Snippets[0]
		if snip.Region.CatSetOf(rcol).Size(4) != 1 {
			t.Fatal("group constraint missing from region")
		}
	}
	// Distinct groups produce distinct snippet keys.
	if decs[0].Snippets[0].Key() == decs[1].Snippets[0].Key() {
		t.Fatal("group snippets share a key")
	}
}

func TestDecomposeNmaxBound(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT week, COUNT(*) FROM sales GROUP BY week")
	wcol, _ := tb.Schema().Lookup("week")
	var groups [][]GroupValue
	for i := 0; i < 50; i++ {
		groups = append(groups, []GroupValue{{Col: wcol, Num: float64(i)}})
	}
	decs, err := Decompose(stmt, tb, groups, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 10 {
		t.Fatalf("nmax not applied: %d", len(decs))
	}
}

func TestDecomposeSharedSnippets(t *testing.T) {
	// Two aggregates over the same measure share one snippet.
	tb := salesTable(t)
	stmt := parse(t, "SELECT AVG(revenue), SUM(revenue), COUNT(*) FROM sales")
	decs, err := Decompose(stmt, tb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 {
		t.Fatalf("decs=%d", len(decs))
	}
	d := decs[0]
	// avg(revenue) + freq — SUM reuses both.
	if len(d.Snippets) != 2 {
		t.Fatalf("snippets=%d want 2", len(d.Snippets))
	}
	if d.Aggregates[0].Avg != d.Aggregates[1].Avg {
		t.Fatal("AVG snippet not shared")
	}
	if d.Aggregates[2].Freq != d.Aggregates[1].Freq {
		t.Fatal("FREQ snippet not shared")
	}
}

func TestCompileMeasureDerived(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT SUM(revenue * discount) FROM sales")
	fn, key, err := CompileMeasure(stmt.Items[0].Expr, tb)
	if err != nil {
		t.Fatal(err)
	}
	if key != "(revenue*discount)" {
		t.Fatalf("key=%q", key)
	}
	if got := fn(tb, 0); math.Abs(got-10) > 1e-9 { // 100 * 0.1
		t.Fatalf("derived measure=%v", got)
	}
}

func TestCompileMeasureErrors(t *testing.T) {
	tb := salesTable(t)
	for _, sql := range []string{
		"SELECT AVG(region) FROM sales", // categorical
		"SELECT AVG(nosuch) FROM sales", // unknown
	} {
		stmt := parse(t, sql)
		if _, _, err := CompileMeasure(stmt.Items[0].Expr, tb); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: err=%v", sql, err)
		}
	}
}

func TestComposeAggregate(t *testing.T) {
	avg := ScalarEstimate{Value: 10, StdErr: 1}
	freq := ScalarEstimate{Value: 0.5, StdErr: 0.05}
	const rows = 1000

	a, err := ComposeAggregate(sqlparse.AggAvg, avg, freq, rows)
	if err != nil || a != avg {
		t.Fatalf("AVG compose: %v %v", a, err)
	}

	c, err := ComposeAggregate(sqlparse.AggCount, avg, freq, rows)
	if err != nil || c.Value != 500 || c.StdErr != 50 {
		t.Fatalf("COUNT compose: %+v %v", c, err)
	}

	s, err := ComposeAggregate(sqlparse.AggSum, avg, freq, rows)
	if err != nil {
		t.Fatal(err)
	}
	if s.Value != 5000 {
		t.Fatalf("SUM value=%v", s.Value)
	}
	// Var = 500²·1 + 10²·50² = 250000 + 250000 = 500000.
	if math.Abs(s.StdErr-math.Sqrt(500000)) > 1e-9 {
		t.Fatalf("SUM stderr=%v", s.StdErr)
	}

	if _, err := ComposeAggregate(sqlparse.AggMin, avg, freq, rows); err == nil {
		t.Fatal("MIN composable?")
	}
}

func TestSnippetFuncAndKey(t *testing.T) {
	tb := salesTable(t)
	stmt := parse(t, "SELECT AVG(revenue) FROM sales WHERE week > 3")
	decs, err := Decompose(stmt, tb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sn := decs[0].Snippets[0]
	if sn.Func().String() != "AVG(revenue)" {
		t.Fatalf("func=%v", sn.Func())
	}
	if !strings.HasPrefix(sn.Key(), "AVG(revenue)|week:") {
		t.Fatalf("key=%q", sn.Key())
	}
}
