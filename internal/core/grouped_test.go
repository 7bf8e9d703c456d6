package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/aqp"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/storage"
)

// groupedSystem builds a System over a relation with a ~nCats-value cat
// column. Identical inputs build identical tables and samples.
func groupedSystem(t *testing.T, rows, nCats int, cfg Config) *System {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "cat", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("sales", schema)
	rng := randx.New(1234)
	for i := 0; i < rows; i++ {
		w := rng.Uniform(0, 52)
		c := fmt.Sprintf("c%02d", rng.Intn(nCats))
		rg := []string{"east", "west"}[rng.Intn(2)]
		rev := 50 + 2*w + rng.Normal(0, 3)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(w), storage.Str(c), storage.Str(rg), storage.Num(rev),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sample, err := aqp.BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), cfg)
}

// requireSameRows asserts two results carry the same groups (order included)
// with bit-identical raw estimates.
func requireSameRows(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(a.Rows), len(b.Rows))
	}
	if a.GroupsTruncated != b.GroupsTruncated {
		t.Fatalf("%s: truncated %v vs %v", label, a.GroupsTruncated, b.GroupsTruncated)
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if len(ra.Group) != len(rb.Group) {
			t.Fatalf("%s row %d: group arity %d vs %d", label, i, len(ra.Group), len(rb.Group))
		}
		for j := range ra.Group {
			if ra.Group[j] != rb.Group[j] {
				t.Fatalf("%s row %d: group %+v vs %+v", label, i, ra.Group[j], rb.Group[j])
			}
		}
		if len(ra.Cells) != len(rb.Cells) {
			t.Fatalf("%s row %d: cells %d vs %d", label, i, len(ra.Cells), len(rb.Cells))
		}
		for j := range ra.Cells {
			if ra.Cells[j].Raw != rb.Cells[j].Raw {
				t.Fatalf("%s row %d cell %d: raw %+v vs %+v", label, i, j, ra.Cells[j].Raw, rb.Cells[j].Raw)
			}
		}
	}
}

var groupedSystemSQL = []string{
	"SELECT cat, AVG(revenue), COUNT(*) FROM sales GROUP BY cat",
	"SELECT cat, SUM(revenue) FROM sales WHERE week BETWEEN 10 AND 40 GROUP BY cat",
	"SELECT cat, region, AVG(revenue) FROM sales GROUP BY cat, region",
	"SELECT cat, COUNT(*) FROM sales WHERE region = 'east' GROUP BY cat",
}

// twoPassExecute is the reference for Execute's grouped one-shot path: the
// two-pass plan (a GroupRows discovery pass, then Decompose) with its
// snippets folded by one RunToCompletion, inferred against a snapshot and
// recomposed. It records nothing.
func twoPassExecute(t *testing.T, s *System, sql string) *Result {
	t.Helper()
	view := s.engine.Acquire()
	pl, res, err := s.plan(view, sql, obs.ModeOneShot, false, false)
	if err != nil || pl == nil {
		t.Fatalf("%s: plan %v, %v", sql, pl, err)
	}
	upd := view.RunToCompletion(pl.snips)
	improved, usedModel, _ := inferAll(s.Verdict().SnapshotFor(pl.snips), pl.snips, upd.Estimates)
	if res.Rows, err = composeRows(pl, upd.Estimates, improved, usedModel); err != nil {
		t.Fatal(err)
	}
	res.GroupsTruncated = pl.truncated
	return res
}

// TestGroupedExecuteMatchesAblation: the one-scan deferred-discovery grouped
// execution must produce bit-identical raw answers, the same group order and
// the same truncation verdict as the two-pass reference — before and after
// a sample rebuild.
func TestGroupedExecuteMatchesAblation(t *testing.T) {
	s := groupedSystem(t, 30000, 6, Config{})
	run := func(label string) {
		for _, sql := range groupedSystemSQL {
			ra, err := s.Execute(sql)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, label+" "+sql, ra, twoPassExecute(t, s, sql))
		}
	}
	run("fresh")
	s.RebuildSample()
	run("after rebuild")
}

// TestGroupedZeroMatchQuery: a grouped query matching no rows degenerates to
// the single ungrouped fallback decomposition on both paths.
func TestGroupedZeroMatchQuery(t *testing.T) {
	s := groupedSystem(t, 5000, 4, Config{})
	sql := "SELECT cat, AVG(revenue), COUNT(*) FROM sales WHERE week > 1000 GROUP BY cat"
	ra, err := s.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "zero-match", ra, twoPassExecute(t, s, sql))
	if len(ra.Rows) != 1 || len(ra.Rows[0].Group) != 0 {
		t.Fatalf("zero-match shape: %+v", ra.Rows)
	}
	if ra.GroupsTruncated {
		t.Fatal("zero-match query cannot be truncated")
	}
}

// TestGroupByNegativeZero: -0 and +0 are one numeric group. The region
// k = 0 matches both signs, so reporting them as two groups would count
// the same rows twice: the group counts must sum to the ungrouped COUNT(*).
func TestGroupByNegativeZero(t *testing.T) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "k", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "v", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	rng := randx.New(5)
	for i := 0; i < 4000; i++ {
		k := float64(rng.Intn(3))
		if k == 0 && i%2 == 1 {
			k = math.Copysign(0, -1)
		}
		if err := tb.AppendRow([]storage.Value{storage.Num(k), storage.Num(rng.Normal(10, 1))}); err != nil {
			t.Fatal(err)
		}
	}
	sample, err := aqp.BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), Config{})
	grouped, err := s.Execute("SELECT k, COUNT(*) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	total, err := s.Execute("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, row := range grouped.Rows {
		sum += row.Cells[0].Raw.Value
	}
	if want := total.Rows[0].Cells[0].Raw.Value; math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("group counts sum to %v, ungrouped COUNT(*) is %v", sum, want)
	}
	if len(grouped.Rows) != 3 {
		t.Fatalf("%d groups, want 3: %+v", len(grouped.Rows), grouped.Rows)
	}
	for _, row := range grouped.Rows {
		if k := row.Group[0].Num; math.Signbit(k) {
			t.Fatalf("group value %v, want +0", k)
		}
	}
}

// TestGroupedTruncationSurfaced: Nmax truncation must surface on every
// execution path instead of silently dropping groups.
func TestGroupedTruncationSurfaced(t *testing.T) {
	s := groupedSystem(t, 20000, 6, Config{Nmax: 2})

	res, err := s.Execute("SELECT cat, COUNT(*) FROM sales GROUP BY cat")
	if err != nil {
		t.Fatal(err)
	}
	if !res.GroupsTruncated || len(res.Rows) != 2 {
		t.Fatalf("execute: truncated=%v rows=%d", res.GroupsTruncated, len(res.Rows))
	}

	flat, err := s.Execute("SELECT AVG(revenue) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if flat.GroupsTruncated {
		t.Fatal("ungrouped query reported truncation")
	}

	under, err := s.Execute("SELECT region, COUNT(*) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if under.GroupsTruncated || len(under.Rows) != 2 {
		t.Fatalf("2-group query under Nmax=2: truncated=%v rows=%d", under.GroupsTruncated, len(under.Rows))
	}

	var last *Result
	if _, err := s.ExecuteProgressive(context.Background(), "SELECT cat, COUNT(*) FROM sales GROUP BY cat",
		ProgressiveOptions{}, func(r *Result, p Progress) bool {
			last = r
			return true
		}); err != nil {
		t.Fatal(err)
	}
	if last == nil || !last.GroupsTruncated || len(last.Rows) != 2 {
		t.Fatalf("progressive: %+v", last)
	}

	view := s.Engine().ViewAtGen(res.SampleGen, res.BaseRows, res.SampleRows)
	replay, err := s.ExecuteViewPrefix(view, "SELECT cat, COUNT(*) FROM sales GROUP BY cat", res.SampleRows)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.GroupsTruncated || len(replay.Rows) != 2 {
		t.Fatalf("replay: truncated=%v rows=%d", replay.GroupsTruncated, len(replay.Rows))
	}
}

// TestGroupedStreamSurvivesRebuild: a grouped progressive stream pins its
// view, so a sample rebuild landing mid-stream must not change any
// subsequent increment, and every emitted increment must replay bit-for-bit
// via ViewAtGen + ExecuteViewPrefix.
func TestGroupedStreamSurvivesRebuild(t *testing.T) {
	s := groupedSystem(t, 20000, 5, Config{})
	sql := "SELECT cat, AVG(revenue), COUNT(*) FROM sales GROUP BY cat"
	type snap struct {
		res *Result
		p   Progress
	}
	var chunks []snap
	if _, err := s.ExecuteProgressive(context.Background(), sql, ProgressiveOptions{},
		func(r *Result, p Progress) bool {
			chunks = append(chunks, snap{res: r, p: p})
			if len(chunks) == 1 {
				s.RebuildSample() // lands behind the pinned view
			}
			return true
		}); err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 || !chunks[len(chunks)-1].p.Final {
		t.Fatalf("stream shape: %d chunks", len(chunks))
	}
	for i, c := range chunks {
		view := s.Engine().ViewAtGen(c.res.SampleGen, c.res.BaseRows, c.res.SampleRows)
		if view == nil {
			t.Fatalf("chunk %d: generation %d not replayable", i, c.res.SampleGen)
		}
		replay, err := s.ExecuteViewPrefix(view, sql, c.p.Rows)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, fmt.Sprintf("chunk %d", i), c.res, replay)
	}
}
