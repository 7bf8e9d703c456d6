package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/aqp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

type streamedInc struct {
	res  *Result
	prog Progress
}

func collectProgressive(t *testing.T, s *System, sql string, opts ProgressiveOptions) []streamedInc {
	t.Helper()
	var got []streamedInc
	res, err := s.ExecuteProgressive(context.Background(), sql, opts, func(r *Result, p Progress) bool {
		got = append(got, streamedInc{res: r, prog: p})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !got[len(got)-1].prog.Final {
		t.Fatalf("stream did not terminate with a final increment (%d increments)", len(got))
	}
	if res != got[len(got)-1].res {
		t.Fatal("returned result is not the final increment")
	}
	return got
}

// TestExecuteProgressiveIncrementsReplay: every streamed increment's raw
// cells replay float-identically through ViewAtGen + ExecuteViewPrefix —
// even after appends and a sample rebuild have moved the live engine state.
func TestExecuteProgressiveIncrementsReplay(t *testing.T) {
	s := systemFixture(t, 30000, 0.3)
	for _, sql := range []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 25",
		"SELECT COUNT(*) FROM sales WHERE region = 'east'",
		"SELECT region, SUM(revenue) FROM sales GROUP BY region",
	} {
		got := collectProgressive(t, s, sql, ProgressiveOptions{FirstRows: 512})
		if len(got) < 4 {
			t.Fatalf("%s: only %d increments", sql, len(got))
		}
		// Age the engine: the replay must reach back through the generation.
		if _, err := s.Append(salesBatch(t, 2000, 321)); err != nil {
			t.Fatal(err)
		}
		s.RebuildSample()
		for _, inc := range got {
			view := s.Engine().ViewAtGen(inc.res.SampleGen, inc.res.BaseRows, inc.res.SampleRows)
			if view == nil {
				t.Fatalf("%s: generation %d unavailable", sql, inc.res.SampleGen)
			}
			rep, err := s.ExecuteViewPrefix(view, sql, inc.prog.Rows)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) != len(inc.res.Rows) {
				t.Fatalf("%s @%d rows: replay has %d rows, stream %d", sql, inc.prog.Rows, len(rep.Rows), len(inc.res.Rows))
			}
			for ri := range rep.Rows {
				for ci := range rep.Rows[ri].Cells {
					got, want := rep.Rows[ri].Cells[ci].Raw, inc.res.Rows[ri].Cells[ci].Raw
					if got.Value != want.Value || got.StdErr != want.StdErr {
						t.Fatalf("%s @%d rows row %d cell %d: replay %+v, stream %+v",
							sql, inc.prog.Rows, ri, ci, got, want)
					}
				}
			}
		}
	}
}

// TestExecuteProgressiveFinalMatchesExecute: increments follow the doubling
// schedule, rows strictly increase, and the final increment covers the
// sample. The final raw answer is Execute's on an identical fresh system,
// bit for bit: both fold the one merge tree.
func TestExecuteProgressiveFinalMatchesExecute(t *testing.T) {
	sql := "SELECT AVG(revenue) FROM sales WHERE week < 30"
	a := systemFixture(t, 20000, 0.25)
	b := systemFixture(t, 20000, 0.25)
	got := collectProgressive(t, a, sql, ProgressiveOptions{FirstRows: 256})
	prev := 0
	for _, inc := range got {
		if inc.prog.Rows <= prev {
			t.Fatalf("non-increasing prefix %d after %d", inc.prog.Rows, prev)
		}
		prev = inc.prog.Rows
	}
	want, err := b.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	final := got[len(got)-1].res
	fc, wc := final.Rows[0].Cells[0].Raw, want.Rows[0].Cells[0].Raw
	if !sameEstimateBits(fc, wc) {
		t.Fatalf("final raw %+v, Execute raw %+v", fc, wc)
	}
	// Full-stream completion records into the synopsis like Execute does.
	if a.Verdict().SnippetCount() == 0 {
		t.Fatal("completed stream recorded nothing")
	}
	st := a.StatsSnapshot()
	if st.Progressive != 1 || st.Increments != len(got) || st.Total != 1 {
		t.Fatalf("stats %+v after %d increments", st, len(got))
	}
}

// sameEstimateBits compares two estimates by Float64bits.
func sameEstimateBits(a, b query.ScalarEstimate) bool {
	return sameBits(a.Value, b.Value) && sameBits(a.StdErr, b.StdErr) && sameBits(a.PopErr, b.PopErr)
}

// requireRawBits requires two results to have the same groups and raw
// cells, bit for bit.
func requireRawBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if fmt.Sprint(g.Group) != fmt.Sprint(w.Group) || len(g.Cells) != len(w.Cells) {
			t.Fatalf("%s row %d: group %v with %d cells, want %v with %d", label, i, g.Group, len(g.Cells), w.Group, len(w.Cells))
		}
		for j := range w.Cells {
			if !sameEstimateBits(g.Cells[j].Raw, w.Cells[j].Raw) {
				t.Fatalf("%s row %d cell %d: raw %+v, want %+v", label, i, j, g.Cells[j].Raw, w.Cells[j].Raw)
			}
		}
	}
}

// requireImprovedBits requires two results with the same shape to have the
// same improved cells, bit for bit, and the same used-model verdicts.
func requireImprovedBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for i, w := range want.Rows {
		for j, wc := range w.Cells {
			gc := got.Rows[i].Cells[j]
			if !sameEstimateBits(gc.Improved, wc.Improved) || gc.UsedModel != wc.UsedModel {
				t.Fatalf("%s row %d cell %d: improved %+v (model %v), want %+v (model %v)",
					label, i, j, gc.Improved, gc.UsedModel, wc.Improved, wc.UsedModel)
			}
		}
	}
}

// TestQueryEqualsFinalStreamIncrement: a one-shot answer and the final
// increment of a stream on the same view fold the sample along one merge
// tree, so their raw cells are equal bit for bit — replayed (ExecuteView
// against ExecuteViewPrefix at SampleRows, which also agree on every
// improved cell and used-model verdict) and served (Execute through the
// scan memo against ExecuteProgressive's Final increment), for a flat and
// a grouped statement, on a flat and a 4-partition layout, before and after
// an append, and across a rebuild.
func TestQueryEqualsFinalStreamIncrement(t *testing.T) {
	stmts := []string{
		"SELECT AVG(revenue), COUNT(*) FROM sales WHERE week BETWEEN 5 AND 40",
		"SELECT region, AVG(revenue), SUM(revenue) FROM sales WHERE week BETWEEN 5 AND 45 GROUP BY region",
	}
	for _, cfg := range []Config{{}, {NumPartitions: 4, StratumColumn: "week"}} {
		t.Run(fmt.Sprintf("parts=%d", cfg.NumPartitions), func(t *testing.T) {
			sys := memoFixture(t, cfg)
			check := func(step string) {
				t.Helper()
				view := sys.Engine().Acquire()
				for _, sql := range stmts {
					label := step + ": " + sql
					oneShot, err := sys.ExecuteView(view, sql)
					if err != nil {
						t.Fatal(err)
					}
					final, err := sys.ExecuteViewPrefix(view, sql, view.SampleRows)
					if err != nil {
						t.Fatal(err)
					}
					requireRawBits(t, label+" (replays)", final, oneShot)
					requireImprovedBits(t, label+" (replays)", final, oneShot)
					served, err := sys.Execute(sql)
					if err != nil {
						t.Fatal(err)
					}
					stream := collectProgressive(t, sys, sql, ProgressiveOptions{})
					streamed := stream[len(stream)-1].res
					for _, res := range []*Result{served, streamed} {
						if res.SampleGen != view.SampleGen || res.SampleRows != view.SampleRows {
							t.Fatalf("%s: served from (%d, %d), pinned (%d, %d)", label, res.SampleGen, res.SampleRows, view.SampleGen, view.SampleRows)
						}
					}
					requireRawBits(t, label+" (served)", streamed, served)
					requireRawBits(t, label+" (served vs replay)", served, oneShot)
				}
			}
			check("boot")
			if _, err := sys.Append(memoBatch(t, 1200, 9, 5, 45, []string{"east", "west"})); err != nil {
				t.Fatal(err)
			}
			check("after an append")
			sys.RebuildSample()
			check("after a rebuild")
			if _, err := sys.Append(memoBatch(t, 900, 10, 5, 45, []string{"east", "west"})); err != nil {
				t.Fatal(err)
			}
			check("after a rebuild and an append")
		})
	}
}

// TestExecuteProgressiveEarlyStopAndCancel: a false yield ends the stream
// without recording; a cancelled context aborts between increments.
func TestExecuteProgressiveEarlyStopAndCancel(t *testing.T) {
	s := systemFixture(t, 20000, 0.25)
	sql := "SELECT AVG(revenue) FROM sales WHERE week < 30"

	n := 0
	res, err := s.ExecuteProgressive(context.Background(), sql, ProgressiveOptions{FirstRows: 256},
		func(r *Result, p Progress) bool {
			n++
			return n < 2
		})
	if err != nil || n != 2 || res == nil {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
	if s.Verdict().SnippetCount() != 0 {
		t.Fatal("early-stopped stream recorded a partial answer")
	}

	ctx, cancel := context.WithCancel(context.Background())
	n = 0
	_, err = s.ExecuteProgressive(ctx, sql, ProgressiveOptions{FirstRows: 256},
		func(r *Result, p Progress) bool {
			n++
			cancel()
			return true
		})
	if err != context.Canceled || n != 1 {
		t.Fatalf("cancel: n=%d err=%v", n, err)
	}
	if s.Verdict().SnippetCount() != 0 {
		t.Fatal("cancelled stream recorded a partial answer")
	}

	// An explicit schedule that stops short of the sample must not mark any
	// increment final nor record its partial estimate as a full-sample
	// answer; one that overshoots clamps and finishes normally.
	var lastProg Progress
	res, err = s.ExecuteProgressive(context.Background(), sql, ProgressiveOptions{Schedule: []int{500, 1000}},
		func(r *Result, p Progress) bool {
			lastProg = p
			return true
		})
	if err != nil || res == nil || lastProg.Final || lastProg.Rows != 1000 {
		t.Fatalf("short schedule: res=%v err=%v last=%+v", res != nil, err, lastProg)
	}
	if s.Verdict().SnippetCount() != 0 {
		t.Fatal("short schedule recorded a partial-prefix answer as full-sample")
	}
	res, err = s.ExecuteProgressive(context.Background(), sql, ProgressiveOptions{Schedule: []int{1 << 30}},
		func(r *Result, p Progress) bool {
			lastProg = p
			return true
		})
	if err != nil || !lastProg.Final || lastProg.Rows != res.SampleRows {
		t.Fatalf("overshooting schedule: err=%v last=%+v", err, lastProg)
	}
	if s.Verdict().SnippetCount() == 0 {
		t.Fatal("completed overshooting schedule recorded nothing")
	}

	// Unsupported queries return a terminal result without yielding.
	res, err = s.ExecuteProgressive(context.Background(), "SELECT MAX(revenue) FROM sales", ProgressiveOptions{},
		func(r *Result, p Progress) bool {
			t.Fatal("unsupported query yielded an increment")
			return false
		})
	if err != nil || res.Supported {
		t.Fatalf("unsupported: res=%+v err=%v", res, err)
	}
}

// TestInferSnapshotPinned: a snapshot taken before concurrent records keeps
// producing the pre-record inference, while a fresh Verdict.Infer moves.
func TestInferSnapshotPinned(t *testing.T) {
	s := systemFixture(t, 20000, 0.25)
	// Teach the synopsis enough to build a model, then train.
	for w := 0; w < 40; w += 4 {
		sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN " + itoa(w) + " AND " + itoa(w+6)
		if _, err := s.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verdict().Train(); err != nil {
		t.Fatal(err)
	}
	view := s.Engine().Acquire()
	pl, _, err := s.plan(view, "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 11 AND 19", obs.ModeProgressive, false)
	if err != nil {
		t.Fatal(err)
	}
	sn := pl.snips[0]
	raw := view.EvalPrefix(pl.snips, 1000).Estimates[0]
	snap := s.Verdict().SnapshotFor(pl.snips)
	before := snap.Infer(sn, raw)
	// Mutate the synopsis behind the snapshot's back.
	for w := 1; w < 30; w += 3 {
		if _, err := s.Execute("SELECT AVG(revenue) FROM sales WHERE week BETWEEN " + itoa(w) + " AND " + itoa(w+9)); err != nil {
			t.Fatal(err)
		}
	}
	after := snap.Infer(sn, raw)
	if before != after {
		t.Fatalf("pinned snapshot moved: %+v -> %+v", before, after)
	}
	live := s.Verdict().Infer(sn, raw)
	if live == before {
		t.Log("live inference unchanged by new records (acceptable, but unusual)")
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// TestTargetNotMetWithoutRows: a cell with no usable rows yet carries an
// infinite raw error, sanitized to MaxFloat64, so a relative target is not
// met by a vacuous 0 ± 0 at the first increment; the stream runs on until
// the cell has rows enough, or the sample ends.
func TestTargetNotMetWithoutRows(t *testing.T) {
	tb := storage.NewTable("t", storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "v", Kind: storage.Numeric, Role: storage.Measure},
	}))
	rng := randx.New(5)
	for i := 0; i < 100000; i++ {
		if err := tb.AppendRow([]storage.Value{storage.Num(float64(i % 1000)), storage.Num(10 + rng.Normal(0, 1))}); err != nil {
			t.Fatal(err)
		}
	}
	sample, err := aqp.BuildSample(tb, 1.0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), Config{})
	var first *Result
	var steps []Progress
	opts := ProgressiveOptions{FirstRows: 256, TargetCI: 0.02, TargetRelative: true}
	if _, err := s.ExecuteProgressive(context.Background(), "SELECT AVG(v) FROM t WHERE week = 3", opts, func(r *Result, p Progress) bool {
		if first == nil {
			first = r
		}
		steps = append(steps, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	cell := first.Rows[0].Cells[0]
	if steps[0].TargetMet || cell.Raw.StdErr != math.MaxFloat64 || cell.Improved.StdErr != math.MaxFloat64 {
		t.Fatalf("first increment (%d rows): target met %v, raw %+v, improved %+v", steps[0].Rows, steps[0].TargetMet, cell.Raw, cell.Improved)
	}
	if last := steps[len(steps)-1]; !last.TargetMet && !last.Final {
		t.Fatalf("stream ended at %+v", last)
	}
}
