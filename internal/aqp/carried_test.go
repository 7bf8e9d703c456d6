package aqp

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
)

// scanCounter counts scan-stage observations: a timed CarriedFold must
// report exactly one per Run, whichever case ran.
type scanCounter struct{ scans int }

func (c *scanCounter) ObserveStage(st obs.Stage, _ time.Duration) {
	if st.Name == obs.StageScan {
		c.scans++
	}
}

// carriedPlan plans the test statements against one view's frozen base
// table, as internal/core plans every query: a fresh snippet list (and a
// fresh grouped spec) per execution, bound to that view's snapshot.
func carriedPlan(t *testing.T, base *storage.Table) ([]*query.Snippet, *query.GroupedSpec) {
	t.Helper()
	const grouped = "SELECT region, AVG(val), COUNT(*) FROM t WHERE week BETWEEN 10 AND 60 GROUP BY region"
	var snips []*query.Snippet
	for _, sql := range []string{
		"SELECT AVG(val) FROM t WHERE week >= 20 AND week < 45",
		"SELECT AVG(val * val) FROM t WHERE week BETWEEN 40 AND 90",
		"SELECT COUNT(*) FROM t WHERE region = 'a'",
	} {
		snips = append(snips, snippetFor(t, base, sql))
	}
	return snips, specFor(t, base, grouped)
}

// TestCarriedFoldCases walks both shapes of a CarriedFold through every
// case of Run — first bind, same snapshot, appends inside and across batch
// boundaries, a view behind the carried prefix, a rebuild, a view of the
// retired generation, and a domain-widening append that moves an open-ended
// snippet's key — and requires each answer to equal the reference one-shot
// scan of a replay view bit for bit, the outcome and the rows folded to be
// the ones the case promises, and the scan stage to be observed exactly
// once per Run.
func TestCarriedFoldCases(t *testing.T) {
	tb := buildTable(t, 20000)
	sample, err := BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	timer := &scanCounter{}
	e.SetStageTimer(timer)
	flat, grouped := NewCarriedFold(true), NewCarriedFold(true)

	// run executes both folds on v and audits them against the replay view.
	run := func(step string, v *View, want FoldOutcome, maxScanned int) {
		t.Helper()
		snips, spec := carriedPlan(t, v.Base)
		before := timer.scans
		fr := flat.Run(v, snips, nil, 0)
		gr := grouped.Run(v, nil, spec, 0)
		observed := 2 // one per Run on a serving view; replay views carry no timer
		if v.stages == nil {
			observed = 0
		}
		if got := timer.scans - before; got != observed {
			t.Fatalf("%s: %d scan-stage observations for 2 runs, want %d", step, got, observed)
		}
		replay := e.ViewAtGen(v.SampleGen, v.BaseRows, v.SampleRows)
		rsnips, rspec := carriedPlan(t, replay.Base)
		requireBatchUpdateEqual(t, step+" flat", fr.Update, replay.RunToCompletion(rsnips))
		requireGroupedResultEqual(t, step+" grouped", gr.Grouped, replay.GroupedRunToCompletion(rspec, 0))
		if timer.scans != before+observed {
			t.Fatalf("%s: the replay view reported a scan stage", step)
		}
		for shape, r := range map[string]FoldResult{"flat": fr, "grouped": gr} {
			if r.Outcome != want {
				t.Fatalf("%s %s: outcome %v, want %v", step, shape, r.Outcome, want)
			}
			if r.Scanned > maxScanned || (want == FoldFull && r.Scanned != v.SampleRows) || (want != FoldReused && r.Scanned == 0) {
				t.Fatalf("%s %s: folded %d rows (outcome %v, bound %d, sample %d)", step, shape, r.Scanned, want, maxScanned, v.SampleRows)
			}
		}
	}
	appendRows := func(b *storage.Table, seed int64) (delta int) {
		t.Helper()
		before := e.Acquire().SampleRows
		if _, err := e.Append(b, seed); err != nil {
			t.Fatal(err)
		}
		return e.Acquire().SampleRows - before
	}
	batch := sample.BatchSize

	first := e.Acquire()
	run("first bind", first, FoldFull, first.SampleRows)
	run("same snapshot", first, FoldReused, 0)
	run("same snapshot, replay view", e.ViewAtGen(first.SampleGen, first.BaseRows, first.SampleRows), FoldReused, 0)

	d := appendRows(appendBatch(t, 100, 50), 1)
	run("append inside the tail batch", e.Acquire(), FoldExtended, d+batch)
	d = appendRows(appendBatch(t, 5000, 51), 2)
	run("append across batch boundaries", e.Acquire(), FoldExtended, d+batch)
	cur := e.Acquire()
	run("same snapshot after appends", cur, FoldReused, 0)

	// first is now behind the folded prefix: served by a reference fold, and
	// the carried state stays with the callers on the current view.
	run("view behind the carried prefix", first, FoldFull, first.SampleRows)
	run("current view after a stale one", cur, FoldReused, 0)

	// A rebuild swaps the generation: one full fold rebinds; the retired
	// generation's views are behind.
	e.RebuildSample(999, DefaultRebuildOptions())
	rebuilt := e.Acquire()
	run("after rebuild", rebuilt, FoldFull, rebuilt.SampleRows)
	run("retired generation", cur, FoldFull, cur.SampleRows)
	run("rebuilt generation again", rebuilt, FoldReused, 0)

	// Weeks beyond the old domain move the domain-clipped upper bound of
	// "week >= 40": that snippet's key differs and its fold rebinds, while
	// the closed ranges above do not move and extend.
	const openSQL = "SELECT COUNT(*) FROM t WHERE week >= 40"
	open := NewCarriedFold(true)
	open.Run(rebuilt, []*query.Snippet{snippetFor(t, rebuilt.Base, openSQL)}, nil, 0)
	d = appendRows(driftedBatch(t, 400, 150, 200, 52), 3)
	v := e.Acquire()
	run("domain-widening append", v, FoldExtended, d+rebuilt.Sample.BatchSize)
	snips := []*query.Snippet{snippetFor(t, v.Base, openSQL)}
	fr := open.Run(v, snips, nil, 0)
	replay := e.ViewAtGen(v.SampleGen, v.BaseRows, v.SampleRows)
	requireBatchUpdateEqual(t, "moved bound", fr.Update,
		replay.RunToCompletion([]*query.Snippet{snippetFor(t, replay.Base, openSQL)}))
	if fr.Outcome != FoldFull || fr.Scanned != v.SampleRows {
		t.Fatalf("moved bound: outcome %v folding %d rows, want a full fold of %d", fr.Outcome, fr.Scanned, v.SampleRows)
	}

	// An untimed fold (notify passes) reports nothing.
	before := timer.scans
	NewCarriedFold(false).Run(v, snips, nil, 0)
	if timer.scans != before {
		t.Fatal("an untimed fold reported a scan stage")
	}
}

// TestCarriedFoldBorrowsSnippets is the retired-snapshot regression: a fold
// extended across appends used to keep the snippets — and through
// Snippet.Table the frozen base-table snapshot — of its first bind for as
// long as the keys stayed equal. Each Run now scans with the caller's
// current snippets and keeps none, so no table other than the newest
// view's is ever reachable from a carried fold.
func TestCarriedFoldBorrowsSnippets(t *testing.T) {
	tb := buildTable(t, 20000)
	sample, err := BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	c := NewCarriedFold(false)
	for i := 0; i < 5; i++ {
		if i > 0 {
			if _, err := e.Append(appendBatch(t, 1500, int64(60+i)), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		v := e.Acquire()
		snips := []*query.Snippet{
			snippetFor(t, v.Base, "SELECT AVG(val) FROM t WHERE week >= 20 AND week < 45"),
			snippetFor(t, v.Base, "SELECT COUNT(*) FROM t WHERE region = 'a'"),
		}
		fr := c.Run(v, snips, nil, 0)
		if i > 0 && fr.Outcome != FoldExtended {
			t.Fatalf("append %d: outcome %v, want an extension (the keys did not move)", i, fr.Outcome)
		}
		requireBatchUpdateEqual(t, "append "+itoa(i), fr.Update, e.ViewAt(v.BaseRows, v.SampleRows).RunToCompletion(snips))
		if c.scan.snips != nil {
			t.Fatalf("append %d: the fold kept its caller's snippet list", i)
		}
		for j, a := range c.scan.accs {
			if a.sn != nil {
				t.Fatalf("append %d: accumulator %d kept a snippet (and its table snapshot) after the Run", i, j)
			}
		}
	}
}
