package aqp

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// bandTable is buildTable's relation plus a categorical "band" that is a
// function of week (w0 … w3, a quarter of the week domain each). Stratified
// on week, most strata hold a single band, so a discovery fold meets groups
// that are missing from whole strata and groups first seen in a later one.
func bandTable(t *testing.T, rows int, seed int64) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "band", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	rng := randx.New(seed)
	for i := 0; i < rows; i++ {
		week := rng.Uniform(0, 100)
		region := "a"
		if rng.Bool(0.5) {
			region = "b"
		}
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week), storage.Str(region), storage.Str(fmt.Sprintf("w%d", int(week)/25)),
			storage.Num(10 + week + rng.Normal(0, 1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// requireSameBits compares two updates' estimates by Float64bits, so even
// a NaN or a signed zero must match.
func requireSameBits(t *testing.T, label string, got, want Increment) {
	t.Helper()
	if got.Rows != want.Rows || got.Final != want.Final || len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("%s: shape (rows %d, final %v, %d cells) vs oracle (rows %d, final %v, %d cells)", label,
			got.Rows, got.Final, len(got.Estimates), want.Rows, want.Final, len(want.Estimates))
	}
	for i, w := range want.Estimates {
		g := got.Estimates[i]
		if got.Valid[i] != want.Valid[i] ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.StdErr) != math.Float64bits(w.StdErr) ||
			math.Float64bits(g.PopErr) != math.Float64bits(w.PopErr) {
			t.Fatalf("%s: cell %d is %v/%+v, oracle %v/%+v", label, i, got.Valid[i], g, want.Valid[i], w)
		}
	}
}

// TestCarriedFoldMatchesFresh: a fold carried across appends — extended
// inside the tail's partial unit and across a unit boundary — must equal a
// fresh one-shot fold of the grown sample and the per-snippet oracle
// (perSnippetRunToCompletion) bit for bit, on a flat and a 4-partition
// stratified layout, for a flat snippet list, a decomposed grouped one and
// discovery-grouped specs (one grouping by a column the strata split), at
// GOMAXPROCS 1, 2 and 4.
func TestCarriedFoldMatchesFresh(t *testing.T) {
	groupedSQL := []string{
		"SELECT region, AVG(val), COUNT(*) FROM t WHERE week >= 5 AND week < 70 GROUP BY region",
		"SELECT band, AVG(val), COUNT(*) FROM t GROUP BY band",
	}
	for _, parts := range []int{0, 4} {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("parts=%d/procs=%d", parts, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				tb := bandTable(t, 10001, 7)
				sample, err := BuildSample(tb, 1.0, 0, 21)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(tb, sample, CachedCost)
				if parts > 0 {
					if err := e.SetSampleLayout(partitionedLayout(tb, parts)); err != nil {
						t.Fatal(err)
					}
					if !codeMissingFromAStratum(e.Acquire(), "band") {
						t.Fatal("fixture: every band appears in every stratum")
					}
				}
				v := e.Acquire()
				plans := map[string][]*query.Snippet{
					"snippets":           progressiveSnips(t, tb),
					"decomposed-grouped": groupedSnips(t, v, tb, groupedSQL[0]),
				}
				carried := map[string]*CarriedFold{}
				for _, name := range append([]string{"snippets", "decomposed-grouped"}, groupedSQL...) {
					carried[name] = NewCarriedFold(false)
				}
				for i, add := range []int{0, 1000, unitRows} {
					if add > 0 {
						if _, err := e.Append(bandTable(t, add, int64(60+i)), int64(i)); err != nil {
							t.Fatal(err)
						}
					}
					v := e.Acquire()
					outcome := FoldExtended
					if add == 0 {
						outcome = FoldFull
					}
					for name, snips := range plans {
						label := fmt.Sprintf("+%d rows, %s", add, name)
						want := perSnippetRunToCompletion(v, snips)
						requireSameBits(t, label+" one-shot", v.RunToCompletion(snips), want)
						fr := carried[name].Run(v, snips, nil, 0)
						requireOutcome(t, label+" carried", fr, v, outcome, add+unitRows)
						requireSameBits(t, label+" carried", fr.Update, want)
					}
					for _, sql := range groupedSQL {
						label := fmt.Sprintf("+%d rows, discovery %q", add, sql)
						base := v.Base
						wantGroups := groupRowsFor(t, v, base, sql)
						want := perSnippetRunToCompletion(v, groupedSnips(t, v, base, sql))
						gr := carried[sql].Run(v, nil, specFor(t, base, sql), 0)
						requireOutcome(t, label+" carried", gr, v, outcome, add+unitRows)
						for _, got := range []*GroupedResult{v.GroupedRunToCompletion(specFor(t, base, sql), 0), gr.Grouped} {
							if fmt.Sprint(got.Groups) != fmt.Sprint(wantGroups) || got.Truncated {
								t.Fatalf("%s: groups %v, two-pass %v", label, got.Groups, wantGroups)
							}
							requireSameBits(t, label, got.Update, want)
						}
					}
				}
			})
		}
	}
}

// codeMissingFromAStratum reports whether some code of the categorical
// column name present in the strata of v's layout has no row in one of them.
func codeMissingFromAStratum(v *View, name string) bool {
	col, _ := v.Sample.Data.Schema().Lookup(name)
	all := map[int32]bool{}
	var per []map[int32]bool
	for _, st := range v.Sample.Parts.StrataTables() {
		seen := map[int32]bool{}
		for _, c := range st.CodesCol(col)[:st.Rows()] {
			seen[c], all[c] = true, true
		}
		per = append(per, seen)
	}
	for _, seen := range per {
		if len(seen) < len(all) {
			return true
		}
	}
	return false
}

// groupRowsFor returns the groups a GroupRows pass finds for sql's GROUP BY
// and WHERE on v.
func groupRowsFor(t *testing.T, v *View, tb *storage.Table, sql string) [][]query.GroupValue {
	t.Helper()
	spec := specFor(t, tb, sql)
	groups, err := v.GroupRows(spec.GroupCols, spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}
