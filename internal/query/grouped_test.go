package query

import (
	"fmt"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

func groupedFixture(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "cat", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	for i := 0; i < 200; i++ {
		if err := tb.AppendRow([]storage.Value{
			storage.Num(float64(i % 50)),
			storage.Str(fmt.Sprintf("g%d", i%5)),
			storage.Str([]string{"a", "b"}[i%2]),
			storage.Num(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestGroupedSpecOf covers the discovery-spec construction and its
// fallbacks.
func TestGroupedSpecOf(t *testing.T) {
	tb := groupedFixture(t)
	catCol, _ := tb.Schema().Lookup("cat")
	regCol, _ := tb.Schema().Lookup("region")
	weekCol, _ := tb.Schema().Lookup("week")

	stmt, err := sqlparse.Parse("SELECT cat, region, AVG(val), COUNT(*) FROM t WHERE week < 30 GROUP BY cat, region")
	if err != nil {
		t.Fatal(err)
	}
	spec := GroupedSpecOf(stmt, tb, []int{catCol, regCol})
	if spec == nil {
		t.Fatal("foldable statement yielded no spec")
	}
	if len(spec.Family) != 2 || len(spec.Shifts) != 2 {
		t.Fatalf("spec shape: family=%d shifts=%v", len(spec.Family), spec.Shifts)
	}
	if spec.Base == nil || spec.Base.Matches(tb, 35) { // week 35 ≥ 30
		t.Fatal("spec base must carry the WHERE region")
	}

	if GroupedSpecOf(stmt, tb, nil) != nil {
		t.Fatal("no group columns must not fold")
	}
	if GroupedSpecOf(stmt, tb, []int{weekCol}) != nil {
		t.Fatal("numeric group column must not fold")
	}
}

// TestGroupedExecFormFinalized pins satellite 1: open numeric bounds are
// normalized once into the region's finalized execution form, and constrain
// calls invalidate it.
func TestGroupedExecFormFinalized(t *testing.T) {
	tb := groupedFixture(t)
	weekCol, _ := tb.Schema().Lookup("week")
	g := NewRegion(tb.Schema())
	g.ConstrainNum(weekCol, NumRange{Lo: 10, Hi: 20, LoOpen: true, HiOpen: true})
	ex := g.execForm()
	if len(ex.nums) != 1 {
		t.Fatalf("exec form: %+v", ex)
	}
	p := ex.nums[0]
	if !(p.lo > 10 && p.hi < 20) {
		t.Fatalf("open bounds not closed: [%v, %v]", p.lo, p.hi)
	}
	if !p.r.Contains(p.lo) || !p.r.Contains(p.hi) || p.r.Contains(10) || p.r.Contains(20) {
		t.Fatal("closed bounds disagree with the range semantics")
	}
	if got := g.execForm(); got != ex {
		t.Fatal("exec form must be cached")
	}
	g.ConstrainNum(weekCol, NumRange{Lo: 12, Hi: 18})
	if got := g.execForm(); got == ex {
		t.Fatal("constrain must invalidate the cached exec form")
	}
}
