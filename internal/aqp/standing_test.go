package aqp

import "testing"

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

// TestStandingScanMatchesRunToCompletion is the incremental replay
// property: after every append, a StandingScan's Refresh — which folds only
// the newly landed complete batches plus the partial tail — must equal a
// fresh RunToCompletion over the whole grown sample, bit for bit. Appends
// of varying sizes exercise tail batches that grow, complete, and straddle
// batch boundaries.
func TestStandingScanMatchesRunToCompletion(t *testing.T) {
	tb := buildTable(t, 20000)
	sample, err := BuildSample(tb, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := progressiveSnips(t, tb)
	ss := NewStandingScan(snips)

	check := func(step string) {
		t.Helper()
		view := e.Acquire()
		upd, ok := ss.Refresh(view)
		if !ok {
			t.Fatalf("%s: Refresh refused a same-generation view", step)
		}
		fresh := e.ViewAt(view.BaseRows, view.SampleRows).RunToCompletion(snips)
		requireBatchUpdateEqual(t, step, upd, fresh)
		if ss.Folded() > view.SampleRows {
			t.Fatalf("%s: folded %d rows beyond the %d-row sample", step, ss.Folded(), view.SampleRows)
		}
	}

	check("initial fold")
	check("refresh without append") // no new rows: emit must be reproducible
	batch := ss.Folded()
	for i, rows := range []int{100, 1, 5000, 2500, 9000} {
		if _, err := e.Append(appendBatch(t, rows, int64(50+i)), int64(i)); err != nil {
			t.Fatal(err)
		}
		check("after append " + itoa(rows))
	}
	if ss.Folded() <= batch {
		t.Fatalf("carried fold never advanced past %d rows", ss.Folded())
	}
}

// TestStandingScanRefusesRebind pins the incompatibility contract: a
// rebuilt sample (new generation, reshuffled rows, new batch size) cannot
// extend a carried fold — Refresh must report ok=false rather than emit a
// silently wrong merge, and the replacement scan must replay exactly.
func TestStandingScanRefusesRebind(t *testing.T) {
	tb := buildTable(t, 10000)
	sample, err := BuildSample(tb, 0.4, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := progressiveSnips(t, tb)
	ss := NewStandingScan(snips)
	old := e.Acquire()
	if _, ok := ss.Refresh(old); !ok {
		t.Fatal("first Refresh refused")
	}
	gen0 := ss.Gen()

	e.RebuildSample(999, DefaultRebuildOptions())
	view := e.Acquire()
	if view.SampleGen == gen0 {
		t.Fatal("rebuild did not advance the generation")
	}
	if _, ok := ss.Refresh(view); ok {
		t.Fatal("Refresh extended a carried fold across a generation swap")
	}
	// The pinned old view still extends the old fold bit-identically, and
	// replays through ViewAtGen as long as the generation is retained.
	upd, ok := ss.Refresh(old)
	if !ok {
		t.Fatal("Refresh refused the generation it is bound to")
	}
	replay := e.ViewAtGen(gen0, old.BaseRows, old.SampleRows)
	if replay == nil {
		t.Fatal("ViewAtGen lost the retired generation")
	}
	requireBatchUpdateEqual(t, "pinned old generation", upd, replay.RunToCompletion(snips))

	// A fresh scan binds to the new generation and replays it exactly.
	ss2 := NewStandingScan(snips)
	upd2, ok := ss2.Refresh(view)
	if !ok {
		t.Fatal("fresh scan refused the new generation")
	}
	requireBatchUpdateEqual(t, "post-rebuild fresh fold",
		upd2, e.ViewAt(view.BaseRows, view.SampleRows).RunToCompletion(snips))
}
