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
// mirroring what core's legacy plan does.
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

// TestGroupedScanMatchesPerSnippet: the one-scan grouped paths — the
// static kernel over a decomposed snippet list and the discovery scan —
// must be FLOAT-IDENTICAL (bit-equal estimates, not merely close) to the
// per-snippet reference fold, on clustered, shuffled and stratified
// layouts. The stratified one has 400 groups over 56 strata, so groups are
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
				requireSameBits(t, sql+" static", gv.RunToCompletion(snips), up)
				requireSameBits(t, sql+" discovery", gv.GroupedRunToCompletion(specFor(t, tb, sql), 0).Update, up)
			}
		})
	}
}

// TestGroupedProgressiveBitIdentical: under the grouped kernel, progressive
// increments must stay bit-identical to a fresh EvalPrefix replay of the same
// prefix, for any worker cap — the bank kernel yields the same per-unit
// partials the carry logic was built on.
func TestGroupedProgressiveBitIdentical(t *testing.T) {
	tb := buildGroupedTable(t, 4*storage.BlockSize+321, 9, false)
	sample, err := BuildSample(tb, 1.0, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	v := e.Acquire()
	snips := groupedSnips(t, v, tb, "SELECT cat, AVG(val), COUNT(*) FROM t WHERE week < 80 GROUP BY cat")
	sched := PrefixSchedule(v.SampleRows, 0)
	var baseline []Increment
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ps := v.ProgressiveFrom(snips, 0, -1, workers)
		for k, prefix := range sched {
			inc := ps.Step(prefix)
			if workers == 1 {
				baseline = append(baseline, inc)
				fresh := v.EvalPrefix(snips, prefix)
				for i := range snips {
					if inc.Estimates[i] != fresh.Estimates[i] || inc.Valid[i] != fresh.Valid[i] {
						t.Fatalf("prefix %d snippet %d: increment %+v, fresh replay %+v",
							prefix, i, inc.Estimates[i], fresh.Estimates[i])
					}
				}
				continue
			}
			for i := range snips {
				if inc.Estimates[i] != baseline[k].Estimates[i] {
					t.Fatalf("workers=%d prefix %d snippet %d: %+v vs %+v",
						workers, prefix, i, inc.Estimates[i], baseline[k].Estimates[i])
				}
			}
		}
	}
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
// legacy GroupRows + Decompose + RunToCompletion two-pass execution.
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

// TestGroupedFactoringAfterRebuild: the static factored kernel must stay
// float-identical to the per-snippet reference fold across a mid-stream
// sample rebuild — new generation, new row layout, same bit-for-bit
// agreement.
func TestGroupedFactoringAfterRebuild(t *testing.T) {
	tb := buildGroupedTable(t, 2*storage.BlockSize+987, 7, false)
	sample, err := BuildSample(tb, 0.7, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT cat, AVG(val), COUNT(*) FROM t WHERE week < 60 GROUP BY cat"
	e := NewEngine(tb, sample, CachedCost)

	check := func(label string) {
		gv := e.Acquire()
		snips := groupedSnips(t, gv, tb, sql)
		ug := gv.RunToCompletion(snips)
		up := perSnippetRunToCompletion(gv, snips)
		for i := range snips {
			if ug.Estimates[i] != up.Estimates[i] {
				t.Fatalf("%s snippet %d: %+v vs %+v", label, i, ug.Estimates[i], up.Estimates[i])
			}
		}
	}
	check("before rebuild")
	e.RebuildSample(777, DefaultRebuildOptions())
	check("after rebuild")
}
