package aqp

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// requireBatchUpdateEqual asserts bit-for-bit equality between two final
// BatchUpdates (struct equality on the float64 estimate fields — no
// tolerance): the replay-equality property standing subscriptions rest on.
func requireBatchUpdateEqual(t *testing.T, label string, got, want BatchUpdate) {
	t.Helper()
	if got.RowsScanned != want.RowsScanned || got.Batch != want.Batch || got.SimTime != want.SimTime {
		t.Fatalf("%s: shape (rows %d batch %d sim %v) vs fresh (rows %d batch %d sim %v)",
			label, got.RowsScanned, got.Batch, got.SimTime, want.RowsScanned, want.Batch, want.SimTime)
	}
	if len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("%s: %d estimates vs fresh %d", label, len(got.Estimates), len(want.Estimates))
	}
	for i := range want.Estimates {
		if got.Valid[i] != want.Valid[i] {
			t.Fatalf("%s: snippet %d validity %v, fresh %v", label, i, got.Valid[i], want.Valid[i])
		}
		if got.Estimates[i] != want.Estimates[i] {
			t.Fatalf("%s: snippet %d estimate %+v, fresh %+v", label, i, got.Estimates[i], want.Estimates[i])
		}
	}
}

// requireGroupedResultEqual asserts bit-for-bit equality between two grouped
// results: same groups in the same order, same truncation flag, and a
// bit-identical final update.
func requireGroupedResultEqual(t *testing.T, label string, got, want *GroupedResult) {
	t.Helper()
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: truncated %v, fresh %v", label, got.Truncated, want.Truncated)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups vs fresh %d", label, len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if len(got.Groups[i]) != len(want.Groups[i]) {
			t.Fatalf("%s: group %d arity %d vs fresh %d", label, i, len(got.Groups[i]), len(want.Groups[i]))
		}
		for j := range want.Groups[i] {
			if got.Groups[i][j] != want.Groups[i][j] {
				t.Fatalf("%s: group %d value %d = %+v, fresh %+v", label, i, j, got.Groups[i][j], want.Groups[i][j])
			}
		}
	}
	requireBatchUpdateEqual(t, label, got.Update, want.Update)
}

// regionBatch builds an append batch like appendBatch but drawing regions
// from the given list — letting tests introduce a region the base table has
// never seen, so the carried grouped fold must discover a new dictionary
// code mid-stream and backfill its master.
func regionBatch(t *testing.T, rows int, seed int64, regions []string) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t_batch", schema)
	rng := randx.New(seed)
	for i := 0; i < rows; i++ {
		week := rng.Uniform(0, 100)
		region := regions[int(rng.Uniform(0, float64(len(regions))))%len(regions)]
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week), storage.Str(region), storage.Num(10 + week),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// appendSampled appends b to e and returns how many of its rows entered the
// sample.
func appendSampled(t *testing.T, e *Engine, b *storage.Table, seed int64) int {
	t.Helper()
	n, err := e.Append(b, seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// requireOutcome checks what a Run says it folded: the outcome the case
// promises, every row for a full fold, none for a reuse, and for an
// extension at least one row but at most maxScanned.
func requireOutcome(t *testing.T, label string, fr FoldResult, v *View, want FoldOutcome, maxScanned int) {
	t.Helper()
	ok := fr.Outcome == want
	switch want {
	case FoldReused:
		ok = ok && fr.Scanned == 0
	case FoldFull:
		ok = ok && fr.Scanned == v.SampleRows
	default:
		ok = ok && fr.Scanned > 0 && fr.Scanned <= maxScanned
	}
	if !ok {
		t.Fatalf("%s: outcome %v folding %d rows, want %v (bound %d, sample %d)", label, fr.Outcome, fr.Scanned, want, maxScanned, v.SampleRows)
	}
}

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
		requireOutcome(t, step+" flat", fr, v, want, maxScanned)
		requireOutcome(t, step+" grouped", gr, v, want, maxScanned)
	}
	batch := sample.BatchSize

	first := e.Acquire()
	run("first bind", first, FoldFull, first.SampleRows)
	run("same snapshot", first, FoldReused, 0)
	run("same snapshot, replay view", e.ViewAtGen(first.SampleGen, first.BaseRows, first.SampleRows), FoldReused, 0)

	// A grouped answer depends on nmax (its truncation): another nmax on the
	// same snapshot must fold again rather than reuse the last answer.
	_, spec := carriedPlan(t, first.Base)
	gr := grouped.Run(first, nil, spec, 1)
	requireGroupedResultEqual(t, "same snapshot, nmax 1", gr.Grouped, first.GroupedRunToCompletion(spec, 1))
	if gr.Outcome != FoldExtended || gr.Scanned > batch {
		t.Fatalf("same snapshot, nmax 1: outcome %v folding %d rows, want the tail re-folded", gr.Outcome, gr.Scanned)
	}
	if !gr.Grouped.Truncated {
		t.Fatal("fixture: nmax 1 did not truncate the grouped answer")
	}

	d := appendSampled(t, e, appendBatch(t, 100, 50), 1)
	run("append inside the tail batch", e.Acquire(), FoldExtended, d+batch)
	d = appendSampled(t, e, appendBatch(t, 5000, 51), 2)
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
	d = appendSampled(t, e, driftedBatch(t, 400, 150, 200, 52), 3)
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
		requireBatchUpdateEqual(t, "append "+itoa(i), fr.Update, e.ViewAtGen(v.SampleGen, v.BaseRows, v.SampleRows).RunToCompletion(snips))
		for j, a := range c.accs {
			if a.sn != nil {
				t.Fatalf("append %d: accumulator %d kept a snippet (and its table snapshot) after the Run", i, j)
			}
		}
	}
}

// replayAcrossAppends is the incremental replay property standing scans rest
// on: after every append, a carried Run — which folds only the newly landed
// complete batches plus the partial tail — must equal a fresh
// RunToCompletion (flat) or GroupedRunToCompletion (grouped) over the whole
// grown sample, bit for bit. Appends of varying sizes exercise tail batches
// that grow, complete and straddle batch boundaries; the last one births a
// region the grouped fold has never seen.
func replayAcrossAppends(t *testing.T, grouped bool) {
	t.Helper()
	tb := buildTable(t, 20000)
	sample, err := BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	const sql = "SELECT region, AVG(val), COUNT(*) FROM t WHERE week BETWEEN 10 AND 60 GROUP BY region"
	snips := progressiveSnips(t, tb)
	c := NewCarriedFold(false)

	check := func(step string, want FoldOutcome, delta int) {
		t.Helper()
		v := e.Acquire()
		replay := e.ViewAtGen(v.SampleGen, v.BaseRows, v.SampleRows)
		var fr FoldResult
		if grouped {
			// The grouped spec is rebuilt against the grown table each time,
			// exactly as the core plan layer re-plans per notify; the shape
			// key inside Run decides whether the carried fold still applies.
			fr = c.Run(v, nil, specFor(t, e.Base(), sql), 0)
			requireGroupedResultEqual(t, step, fr.Grouped, replay.GroupedRunToCompletion(specFor(t, replay.Base, sql), 0))
		} else {
			fr = c.Run(v, snips, nil, 0)
			requireBatchUpdateEqual(t, step, fr.Update, replay.RunToCompletion(snips))
		}
		requireOutcome(t, step, fr, v, want, delta+v.Sample.BatchSize)
	}

	check("initial fold", FoldFull, 0)
	check("refresh without append", FoldReused, 0)
	for i, rows := range []int{100, 1, 5000, 2500, 9000} {
		d := appendSampled(t, e, appendBatch(t, rows, int64(50+i)), int64(i))
		check("after append "+itoa(rows), FoldExtended, d)
	}
	d := appendSampled(t, e, regionBatch(t, 6000, 99, []string{"c", "a"}), 77)
	check("after new-region append", FoldExtended, d)
}

// TestStandingScanMatchesRunToCompletion runs the replay property through a
// flat CarriedFold.
func TestStandingScanMatchesRunToCompletion(t *testing.T) { replayAcrossAppends(t, false) }

// TestGroupedStandingScanMatchesRunToCompletion runs the replay property
// through a grouped CarriedFold.
func TestGroupedStandingScanMatchesRunToCompletion(t *testing.T) { replayAcrossAppends(t, true) }

// TestCarriedFoldTruncation: the nmax cap and its Truncated flag must
// replay exactly through the carried grouped fold as groups accumulate past
// the cap mid-stream — including the append whose new dictionary codes
// rewiden the packed keys, which moves the spec fingerprint and must rebind
// with one full fold.
func TestCarriedFoldTruncation(t *testing.T) {
	tb := buildTable(t, 12000)
	sample, err := BuildSample(tb, 0.5, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	const sql = "SELECT region, AVG(val) FROM t GROUP BY region"
	c := NewCarriedFold(false)

	check := func(step string, want FoldOutcome, truncated bool) {
		t.Helper()
		v := e.Acquire()
		gr := c.Run(v, nil, specFor(t, e.Base(), sql), 2)
		replay := e.ViewAtGen(v.SampleGen, v.BaseRows, v.SampleRows)
		requireGroupedResultEqual(t, step, gr.Grouped, replay.GroupedRunToCompletion(specFor(t, replay.Base, sql), 2))
		requireOutcome(t, step, gr, v, want, v.SampleRows)
		if gr.Grouped.Truncated != truncated {
			t.Fatalf("%s: truncated %v, want %v", step, gr.Grouped.Truncated, truncated)
		}
	}

	check("at cap", FoldFull, false) // two regions, nmax=2: full but not truncated
	if _, err := e.Append(regionBatch(t, 4000, 31, []string{"c", "d", "a"}), 5); err != nil {
		t.Fatal(err)
	}
	check("past cap, rewidened codes", FoldFull, true) // four regions: two bits per code
	if _, err := e.Append(regionBatch(t, 1500, 32, []string{"c", "d", "a", "b"}), 6); err != nil {
		t.Fatal(err)
	}
	check("past cap grown", FoldExtended, true) // no new codes: the fold carries on
}

// TestStandingScanRefusesRebind pins the incompatibility contract for a
// flat CarriedFold: a rebuilt sample (new generation, reshuffled rows, new
// batch size) cannot extend a carried fold. It must rebind with one full
// fold that replays exactly, and a view of the retired generation is served
// by a reference fold that leaves the new binding in place.
func TestStandingScanRefusesRebind(t *testing.T) {
	tb := buildTable(t, 10000)
	sample, err := BuildSample(tb, 0.4, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	flat := NewCarriedFold(false)
	old := e.Acquire()
	snips := progressiveSnips(t, tb)
	requireOutcome(t, "first flat", flat.Run(old, snips, nil, 0), old, FoldFull, 0)

	view := rebuildGeneration(t, e, old)
	replay := e.ViewAtGen(view.SampleGen, view.BaseRows, view.SampleRows)
	fr := flat.Run(view, progressiveSnips(t, view.Base), nil, 0)
	requireBatchUpdateEqual(t, "post-rebuild flat", fr.Update, replay.RunToCompletion(progressiveSnips(t, replay.Base)))
	requireOutcome(t, "post-rebuild flat", fr, view, FoldFull, 0)

	// The pinned old view still replays through ViewAtGen as long as the
	// generation is retained; the fold serves it without rebinding.
	oldReplay := e.ViewAtGen(old.SampleGen, old.BaseRows, old.SampleRows)
	if oldReplay == nil {
		t.Fatal("ViewAtGen lost the retired generation")
	}
	fr = flat.Run(old, snips, nil, 0)
	requireBatchUpdateEqual(t, "pinned old generation", fr.Update, oldReplay.RunToCompletion(snips))
	requireOutcome(t, "pinned old generation", fr, old, FoldFull, 0)
	requireOutcome(t, "new generation again", flat.Run(view, progressiveSnips(t, view.Base), nil, 0), view, FoldReused, 0)
}

// TestGroupedStandingScanRefusesRebind pins the same contract for a grouped
// CarriedFold, where a drifted spec also cannot extend the carried fold:
// each must rebind with one full fold that replays exactly.
func TestGroupedStandingScanRefusesRebind(t *testing.T) {
	tb := buildTable(t, 10000)
	sample, err := BuildSample(tb, 0.4, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	const sql = "SELECT region, AVG(val), COUNT(*) FROM t WHERE week < 70 GROUP BY region"
	grouped := NewCarriedFold(false)
	old := e.Acquire()
	requireOutcome(t, "first grouped", grouped.Run(old, nil, specFor(t, old.Base, sql), 0), old, FoldFull, 0)

	// A different statement (different region bounds) must not extend the
	// carried grouped fold even on the same view, nor may the original
	// statement extend the drifted one's.
	const driftedSQL = "SELECT region, AVG(val), COUNT(*) FROM t WHERE week < 30 GROUP BY region"
	for _, q := range []string{driftedSQL, sql} {
		gr := grouped.Run(old, nil, specFor(t, old.Base, q), 0)
		requireGroupedResultEqual(t, q, gr.Grouped, old.GroupedRunToCompletion(specFor(t, old.Base, q), 0))
		requireOutcome(t, q, gr, old, FoldFull, 0)
	}

	view := rebuildGeneration(t, e, old)
	replay := e.ViewAtGen(view.SampleGen, view.BaseRows, view.SampleRows)
	gr := grouped.Run(view, nil, specFor(t, view.Base, sql), 0)
	requireGroupedResultEqual(t, "post-rebuild grouped", gr.Grouped, replay.GroupedRunToCompletion(specFor(t, replay.Base, sql), 0))
	requireOutcome(t, "post-rebuild grouped", gr, view, FoldFull, 0)
}

// rebuildGeneration rebuilds e's sample and returns a view of the new
// generation, failing if the generation did not advance past old's.
func rebuildGeneration(t *testing.T, e *Engine, old *View) *View {
	t.Helper()
	if _, err := e.RebuildSample(999, DefaultRebuildOptions()); err != nil {
		t.Fatal(err)
	}
	view := e.Acquire()
	if view.SampleGen == old.SampleGen {
		t.Fatal("rebuild did not advance the generation")
	}
	return view
}
