package storage

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]ColumnDef{
		{Name: "week", Kind: Numeric, Role: Dimension},
		{Name: "region", Kind: Categorical, Role: Dimension},
		{Name: "revenue", Kind: Numeric, Role: Measure},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]ColumnDef{{Name: "", Kind: Numeric}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewSchema([]ColumnDef{
		{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric},
	}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewSchema([]ColumnDef{{Name: "c", Kind: Categorical, Role: Measure}}); err == nil {
		t.Fatal("categorical measure accepted")
	}
}

func TestSchemaLookupAndRoles(t *testing.T) {
	s := testSchema(t)
	if i, ok := s.Lookup("revenue"); !ok || i != 2 {
		t.Fatalf("Lookup revenue = %d,%v", i, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	if dims := s.DimensionCols(); len(dims) != 2 || dims[0] != 0 || dims[1] != 1 {
		t.Fatalf("DimensionCols=%v", dims)
	}
	names := s.Names()
	if names[1] != "region" {
		t.Fatalf("Names=%v", names)
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tb := NewTable("sales", testSchema(t))
	rows := []struct {
		week    float64
		region  string
		revenue float64
	}{
		{1, "east", 100}, {2, "west", 200}, {3, "east", 150},
	}
	for _, r := range rows {
		if err := tb.AppendRow([]Value{Num(r.week), Str(r.region), Num(r.revenue)}); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows=%d", tb.Rows())
	}
	if tb.NumAt(1, 0) != 2 || tb.StrAt(1, 1) != "west" || tb.NumAt(2, 2) != 150 {
		t.Fatal("cell access broken")
	}
	if lo, hi := tb.Domain(0); lo != 1 || hi != 3 {
		t.Fatalf("domain=(%v,%v)", lo, hi)
	}
	if d := tb.DictOf(1); d.Size() != 2 {
		t.Fatalf("dict size=%d", d.Size())
	}
	if err := tb.AppendRow([]Value{Num(1)}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestTableColumnAccessPanicsOnWrongKind(t *testing.T) {
	tb := NewTable("sales", testSchema(t))
	assertPanics(t, func() { tb.NumericCol(1) })
	assertPanics(t, func() { tb.CodesCol(0) })
	assertPanics(t, func() { tb.DictOf(2) })
	assertPanics(t, func() { tb.Domain(1) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestSelectRows(t *testing.T) {
	tb := NewTable("sales", testSchema(t))
	for i := 0; i < 10; i++ {
		region := "east"
		if i%2 == 1 {
			region = "west"
		}
		if err := tb.AppendRow([]Value{Num(float64(i)), Str(region), Num(float64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	sub := tb.SelectRows("sample", []int{1, 3, 5})
	if sub.Rows() != 3 {
		t.Fatalf("rows=%d", sub.Rows())
	}
	if sub.NumAt(0, 0) != 1 || sub.StrAt(2, 1) != "west" || sub.NumAt(1, 2) != 30 {
		t.Fatal("SelectRows wrong values")
	}
	// Shared dictionary: codes stay comparable.
	if sub.DictOf(1) != tb.DictOf(1) {
		t.Fatal("sample must share dictionary")
	}
	// Domains still describe the base relation.
	if lo, hi := sub.Domain(0); lo != 0 || hi != 9 {
		t.Fatalf("sample domain=(%v,%v), want base", lo, hi)
	}
}

func TestAppendTable(t *testing.T) {
	schema := testSchema(t)
	a := NewTable("base", schema)
	b := NewTable("delta", schema)
	if err := a.AppendRow([]Value{Num(1), Str("east"), Num(10)}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow([]Value{Num(5), Str("north"), Num(50)}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow([]Value{Num(6), Str("east"), Num(60)}); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendTable(b); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 3 {
		t.Fatalf("rows=%d", a.Rows())
	}
	if a.StrAt(1, 1) != "north" || a.StrAt(2, 1) != "east" {
		t.Fatal("append re-encoding broken")
	}
	if lo, hi := a.Domain(0); lo != 1 || hi != 6 {
		t.Fatalf("domain after append=(%v,%v)", lo, hi)
	}
	other, _ := NewSchema([]ColumnDef{{Name: "x", Kind: Numeric}})
	if err := a.AppendTable(NewTable("bad", other)); err == nil {
		t.Fatal("mismatched schema accepted")
	}
}

func TestStats(t *testing.T) {
	tb := NewTable("s", MustSchema([]ColumnDef{{Name: "x", Kind: Numeric, Role: Measure}}))
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		if err := tb.AppendRow([]Value{Num(v)}); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.Stats(0)
	if st.Count != 8 || st.Mean != 5 || math.Abs(st.Variance-4) > 1e-12 {
		t.Fatalf("stats=%+v", st)
	}
	if st.Min != 2 || st.Max != 9 {
		t.Fatalf("minmax=%+v", st)
	}
	empty := NewTable("e", MustSchema([]ColumnDef{{Name: "x", Kind: Numeric}}))
	if st := empty.Stats(0); st.Count != 0 {
		t.Fatalf("empty stats=%+v", st)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable("sales", testSchema(t))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if err := tb.AppendRow([]Value{
			Num(r.NormFloat64() * 100),
			Str("r" + strconv.Itoa(r.Intn(5))),
			Num(r.ExpFloat64()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != tb.Rows()+1 || strings.Join(recs[0], ",") != "week,region,revenue" {
		t.Fatalf("%d records, header %v", len(recs), recs[0])
	}
	num := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, rec := range recs[1:] {
		if num(rec[0]) != tb.NumAt(i, 0) || rec[1] != tb.StrAt(i, 1) || num(rec[2]) != tb.NumAt(i, 2) {
			t.Fatalf("row %d: %v", i, rec)
		}
	}
}

func TestDictInternStability(t *testing.T) {
	f := func(raw []string) bool {
		d := NewDict()
		codes := make([]int32, len(raw))
		for i, v := range raw {
			codes[i] = d.Code(v)
		}
		for i, v := range raw {
			c, ok := d.LookupCode(v)
			if !ok || c != codes[i] || d.Value(c) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRowsPreservesOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable("t", MustSchema([]ColumnDef{{Name: "x", Kind: Numeric, Role: Dimension}}))
		n := 1 + r.Intn(50)
		for i := 0; i < n; i++ {
			if err := tb.AppendRow([]Value{Num(float64(i))}); err != nil {
				return false
			}
		}
		k := r.Intn(n + 1)
		idx := r.Perm(n)[:k]
		sub := tb.SelectRows("s", idx)
		if sub.Rows() != k {
			return false
		}
		for i, ri := range idx {
			if sub.NumAt(i, 0) != float64(ri) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
