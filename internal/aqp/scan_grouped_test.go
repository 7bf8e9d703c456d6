package aqp

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// buildGroupedTable builds a relation with a numeric dimension (week), two
// categorical dimensions (cat with nGroups values, region with 2) and a
// measure. clustered keeps week sorted so zone maps prune.
func buildGroupedTable(t testing.TB, rows, nGroups int, clustered bool) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "cat", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	rng := randx.New(99)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	if !clustered {
		rng.Shuffle(rows, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		week := float64(i) / float64(rows) * 100
		cat := fmt.Sprintf("g%03d", rng.Intn(nGroups))
		region := "a"
		if rng.Bool(0.5) {
			region = "b"
		}
		val := 10 + week + rng.Normal(0, 2)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week), storage.Str(cat), storage.Str(region), storage.Num(val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// groupedSnips decomposes sql against tb with sample-discovered groups,
// as the two-pass plan does (GroupRows, then Decompose).
func groupedSnips(t testing.TB, v *View, tb *storage.Table, sql string) []*query.Snippet {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var groupCols []int
	for _, g := range stmt.GroupBy {
		col, ok := tb.Schema().Lookup(g.Name)
		if !ok {
			t.Fatalf("unknown group column %s", g.Name)
		}
		groupCols = append(groupCols, col)
	}
	region, err := query.BindRegion(stmt.Where, tb)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.GroupRows(groupCols, region)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := query.Decompose(stmt, tb, groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snips []*query.Snippet
	for _, d := range decs {
		snips = append(snips, d.Snippets...)
	}
	return snips
}

var groupedEquivalenceSQL = []string{
	"SELECT cat, AVG(val), COUNT(*) FROM t GROUP BY cat",
	"SELECT cat, AVG(val) FROM t WHERE week >= 20 AND week < 70 GROUP BY cat",
	"SELECT cat, region, COUNT(*), AVG(val) FROM t GROUP BY cat, region",
	"SELECT cat, SUM(val) FROM t WHERE region = 'a' GROUP BY cat",
	"SELECT cat, AVG(val * val) FROM t GROUP BY cat", // compound measure
}

// TestGroupedScanMatchesPerSnippet: the discovery scan, and the banked
// per-snippet fold of the decomposed snippet list, must be FLOAT-IDENTICAL
// (bit-equal estimates, not merely close) to the per-snippet reference fold
// written without banks, on clustered, shuffled and stratified layouts. The stratified one has 400 groups over 56 strata, so groups are
// missing from whole strata and first seen in a later one: the discovery
// scan's per-piece backfills.
func TestGroupedScanMatchesPerSnippet(t *testing.T) {
	for _, layout := range []string{"clustered", "shuffled", "stratified"} {
		t.Run(layout, func(t *testing.T) {
			groups := 12
			if layout == "stratified" {
				groups = 400
			}
			tb := buildGroupedTable(t, 3*storage.BlockSize+777, groups, layout == "clustered")
			sample, err := BuildSample(tb, 0.9, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(tb, sample, CachedCost)
			if layout == "stratified" {
				if err := e.SetSampleLayout(partitionedLayout(tb, 4)); err != nil {
					t.Fatal(err)
				}
				if !codeMissingFromAStratum(e.Acquire(), "cat") {
					t.Fatal("fixture: every group appears in every stratum")
				}
			}
			gv := e.Acquire()
			for _, sql := range groupedEquivalenceSQL {
				snips := groupedSnips(t, gv, tb, sql)
				up := perSnippetRunToCompletion(gv, snips)
				requireSameBits(t, sql+" per-snippet", gv.RunToCompletion(snips), up)
				requireSameBits(t, sql+" discovery", gv.GroupedRunToCompletion(specFor(t, tb, sql), 0).Update, up)
			}
		})
	}
}

// TestGroupedProgressiveBitIdentical: a grouped ProgressiveScan — the
// discovery kernel expanded onto the statement's answer set — must equal
// the per-snippet oracle EvalPrefix of the decomposed answer set bit for
// bit at every default-schedule prefix and an unaligned one, resumed or
// not, on a flat and a 4-partition layout at GOMAXPROCS 1, 2 and 4: with
// a group the early prefixes have not met, under Nmax truncation, and with
// no group at all.
func TestGroupedProgressiveBitIdentical(t *testing.T) {
	for _, parts := range []int{0, 4} {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("parts=%d/procs=%d", parts, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				tb := buildGroupedTable(t, 4*storage.BlockSize+321, 9, false)
				// Two rows of a tenth group at the very end of the table,
				// which the flat sample below keeps in table order.
				for i := 0; i < 2; i++ {
					if err := tb.AppendRow([]storage.Value{
						storage.Num(99.5), storage.Str("late"), storage.Str("a"), storage.Num(50),
					}); err != nil {
						t.Fatal(err)
					}
				}
				sample := &Sample{Data: tb, Fraction: 1, BatchSize: tb.Rows(), BaseRows: tb.Rows()}
				e := NewEngine(tb, sample, CachedCost)
				if parts > 0 {
					if err := e.SetSampleLayout(partitionedLayout(tb, parts)); err != nil {
						t.Fatal(err)
					}
				}
				v := e.Acquire()
				for _, sql := range groupedEquivalenceSQL {
					requireGroupedPrefixes(t, sql, v, sql, 0)
				}
				const sql = "SELECT cat, AVG(val), COUNT(*) FROM t GROUP BY cat"
				set := requireGroupedPrefixes(t, "late group", v, sql, 0)
				late := -1
				for g, gv := range set.Groups {
					if gv[0].Str == "late" {
						late = g
					}
				}
				first := v.GroupedProgressive(specFor(t, tb, sql), set).Step(PrefixSchedule(v.SampleRows, 0)[0])
				if late < 0 || first.Estimates[2*late+1].Value != 0 {
					t.Fatal("fixture: the first prefix already holds the late group")
				}
				if set := requireGroupedPrefixes(t, "nmax 3", v, sql, 3); !set.Truncated || len(set.Groups) != 3 {
					t.Fatalf("nmax 3: %d groups, truncated %v", len(set.Groups), set.Truncated)
				}
				if set := requireGroupedPrefixes(t, "no group", v, "SELECT cat, AVG(val), COUNT(*) FROM t WHERE week > 1000 GROUP BY cat", 0); len(set.Groups) != 0 {
					t.Fatalf("no group: %d groups", len(set.Groups))
				}
			})
		}
	}
}

// requireGroupedPrefixes takes sql's answer set on v — a full discovery fold
// truncated to nmax — and steps a grouped ProgressiveScan through every
// default-schedule prefix and one unaligned prefix, and a second one resumed
// at the unaligned prefix through the rest, each increment equal bit for bit
// to EvalPrefix of the decomposed answer set. It returns the answer set.
func requireGroupedPrefixes(t *testing.T, label string, v *View, sql string, nmax int) *GroupedResult {
	t.Helper()
	spec := specFor(t, v.Base, sql)
	set := v.GroupedRunToCompletion(spec, nmax)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := query.Decompose(stmt, v.Base, set.Groups, nmax)
	if err != nil {
		t.Fatal(err)
	}
	var snips []*query.Snippet
	for _, d := range decs {
		snips = append(snips, d.Snippets...)
	}
	sched := PrefixSchedule(v.SampleRows, 0)
	if len(sched) < 2 {
		t.Fatal("fixture: the sample is one prefix")
	}
	prefixes := append([]int{sched[0], sched[0] + 777}, sched[1:]...)
	ps := v.GroupedProgressive(spec, set).From(0, -1, 0)
	resumed := v.GroupedProgressive(spec, set).From(prefixes[1], 1, 1)
	for k, prefix := range prefixes {
		want := v.EvalPrefix(snips, prefix)
		requireSameBits(t, fmt.Sprintf("%s prefix %d", label, prefix), ps.Step(prefix), want)
		if k > 1 {
			requireSameBits(t, fmt.Sprintf("%s resumed, prefix %d", label, prefix), resumed.Step(prefix), want)
		}
	}
	return set
}

// specFor builds the discovery spec for a grouped statement.
func specFor(t testing.TB, tb *storage.Table, sql string) *query.GroupedSpec {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var groupCols []int
	for _, g := range stmt.GroupBy {
		col, ok := tb.Schema().Lookup(g.Name)
		if !ok {
			t.Fatalf("unknown group column %s", g.Name)
		}
		groupCols = append(groupCols, col)
	}
	spec := query.GroupedSpecOf(stmt, tb, groupCols)
	if spec == nil {
		t.Fatalf("GroupedSpecOf returned nil for %s", sql)
	}
	return spec
}

// TestGroupedDiscoverMatchesTwoPass: the one-pass discovery scan must return
// the same groups, in the same order, with bit-identical estimates as the
// two-pass GroupRows + Decompose + RunToCompletion execution.
func TestGroupedDiscoverMatchesTwoPass(t *testing.T) {
	tb := buildGroupedTable(t, 3*storage.BlockSize+555, 10, false)
	sample, err := BuildSample(tb, 0.8, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	v := e.Acquire()
	for _, sql := range groupedEquivalenceSQL {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		var groupCols []int
		for _, g := range stmt.GroupBy {
			col, _ := tb.Schema().Lookup(g.Name)
			groupCols = append(groupCols, col)
		}
		region, err := query.BindRegion(stmt.Where, tb)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := v.GroupRows(groupCols, region)
		if err != nil {
			t.Fatal(err)
		}
		decs, err := query.Decompose(stmt, tb, groups, 0)
		if err != nil {
			t.Fatal(err)
		}
		var snips []*query.Snippet
		for _, d := range decs {
			snips = append(snips, d.Snippets...)
		}
		want := v.RunToCompletion(snips)

		gr := v.GroupedRunToCompletion(specFor(t, tb, sql), 0)
		if gr.Truncated {
			t.Fatalf("%s: unexpected truncation", sql)
		}
		if len(gr.Groups) != len(decs) {
			t.Fatalf("%s: discovered %d groups, two-pass found %d", sql, len(gr.Groups), len(decs))
		}
		for g := range gr.Groups {
			for j := range gr.Groups[g] {
				if gr.Groups[g][j] != decs[g].Group[j] {
					t.Fatalf("%s group %d: %+v vs %+v", sql, g, gr.Groups[g], decs[g].Group)
				}
			}
		}
		if gr.Update.Rows != want.Rows {
			t.Fatalf("%s: rows %d vs %d", sql, gr.Update.Rows, want.Rows)
		}
		for i := range snips {
			if gr.Update.Valid[i] != want.Valid[i] || gr.Update.Estimates[i] != want.Estimates[i] {
				t.Fatalf("%s snippet %d: discover %v/%+v, two-pass %v/%+v",
					sql, i, gr.Update.Valid[i], gr.Update.Estimates[i], want.Valid[i], want.Estimates[i])
			}
		}
	}
}

// TestGroupedDiscoverEdges pins the discovery scan's edge behaviors: Nmax
// truncation keeps the ordered head and reports it, and a query matching no
// rows degenerates to the single ungrouped decomposition's estimates.
func TestGroupedDiscoverEdges(t *testing.T) {
	tb := buildGroupedTable(t, 2*storage.BlockSize+100, 8, true)
	sample, err := BuildSample(tb, 1.0, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	v := NewEngine(tb, sample, CachedCost).Acquire()

	full := v.GroupedRunToCompletion(specFor(t, tb, "SELECT cat, AVG(val), COUNT(*) FROM t GROUP BY cat"), 0)
	capped := v.GroupedRunToCompletion(specFor(t, tb, "SELECT cat, AVG(val), COUNT(*) FROM t GROUP BY cat"), 3)
	if !capped.Truncated || full.Truncated {
		t.Fatalf("truncated: capped=%v full=%v", capped.Truncated, full.Truncated)
	}
	if len(capped.Groups) != 3 {
		t.Fatalf("capped groups=%d", len(capped.Groups))
	}
	for g := 0; g < 3; g++ {
		if capped.Groups[g][0] != full.Groups[g][0] {
			t.Fatalf("group %d: %+v vs %+v", g, capped.Groups[g], full.Groups[g])
		}
		for j := 0; j < 2; j++ {
			if capped.Update.Estimates[g*2+j] != full.Update.Estimates[g*2+j] {
				t.Fatalf("group %d slot %d: %+v vs %+v", g, j,
					capped.Update.Estimates[g*2+j], full.Update.Estimates[g*2+j])
			}
		}
	}

	empty := v.GroupedRunToCompletion(specFor(t, tb, "SELECT cat, AVG(val), COUNT(*) FROM t WHERE week > 1000 GROUP BY cat"), 0)
	if len(empty.Groups) != 0 || empty.Truncated {
		t.Fatalf("empty result: %+v", empty)
	}
	// The nil-group fallback decomposition has one snippet per family slot:
	// FREQ is a valid all-zeros estimate, AVG has no rows and stays invalid.
	if len(empty.Update.Estimates) != 2 {
		t.Fatalf("estimates=%d", len(empty.Update.Estimates))
	}
	for j, valid := range empty.Update.Valid {
		if est := empty.Update.Estimates[j]; valid && est.Value != 0 {
			t.Fatalf("slot %d: valid=%v est=%+v", j, valid, est)
		}
	}
}

// TestGroupedFactoringAfterRebuild: the grouped ProgressiveScan must stay
// float-identical to the per-snippet oracle across a sample rebuild — new
// generation, new row layout, same bit-for-bit agreement at every prefix.
func TestGroupedFactoringAfterRebuild(t *testing.T) {
	tb := buildGroupedTable(t, 2*storage.BlockSize+987, 7, false)
	sample, err := BuildSample(tb, 0.7, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT cat, AVG(val), COUNT(*) FROM t WHERE week < 60 GROUP BY cat"
	e := NewEngine(tb, sample, CachedCost)
	requireGroupedPrefixes(t, "before rebuild", e.Acquire(), sql, 0)
	e.RebuildSample(777, DefaultRebuildOptions())
	requireGroupedPrefixes(t, "after rebuild", e.Acquire(), sql, 0)
}
