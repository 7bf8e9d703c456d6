package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/aqp"
	"repro/internal/randx"
	"repro/internal/storage"
)

// runStream collects every increment of an ExecuteProgressive stream,
// optionally aborting (yield false) after cut increments (cut <= 0 runs to
// completion).
func runStream(t *testing.T, s *System, sql string, opts ProgressiveOptions, cut int) []streamedInc {
	t.Helper()
	var got []streamedInc
	_, err := s.ExecuteProgressive(context.Background(), sql, opts, func(r *Result, p Progress) bool {
		got = append(got, streamedInc{res: r, prog: p})
		return cut <= 0 || len(got) < cut
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// requireSameIncrement asserts two streamed increments agree exactly:
// progress coordinates, snapshot provenance, and every raw AND improved
// cell bit-for-bit (wall-clock Overhead excluded — it is the only
// nondeterministic field).
func requireSameIncrement(t *testing.T, label string, got, want streamedInc) {
	t.Helper()
	if got.prog != want.prog {
		t.Fatalf("%s: progress %+v, want %+v", label, got.prog, want.prog)
	}
	g, w := got.res, want.res
	if g.Epoch != w.Epoch || g.SampleGen != w.SampleGen || g.BaseRows != w.BaseRows || g.SampleRows != w.SampleRows {
		t.Fatalf("%s: provenance (%d %d %d %d), want (%d %d %d %d)", label,
			g.Epoch, g.SampleGen, g.BaseRows, g.SampleRows, w.Epoch, w.SampleGen, w.BaseRows, w.SampleRows)
	}
	if g.SimTime != w.SimTime || len(g.Rows) != len(w.Rows) {
		t.Fatalf("%s: shape/simtime differ", label)
	}
	for ri := range w.Rows {
		if len(g.Rows[ri].Cells) != len(w.Rows[ri].Cells) {
			t.Fatalf("%s row %d: cell count", label, ri)
		}
		for ci := range w.Rows[ri].Cells {
			gc, wc := g.Rows[ri].Cells[ci], w.Rows[ri].Cells[ci]
			if gc.Raw != wc.Raw || gc.Improved != wc.Improved || gc.UsedModel != wc.UsedModel {
				t.Fatalf("%s row %d cell %d: %+v, want %+v", label, ri, ci, gc, wc)
			}
		}
	}
}

// TestExecuteProgressiveFromResume is the end-to-end resume property: a
// stream killed after k increments and resumed from its cursor emits
// exactly the increments k..n-1 the uninterrupted stream emits — raw and
// improved cells bit-identical — even when appends and a sample rebuild
// land between the kill and the resume. Two identically seeded systems are
// compared so the uninterrupted run's final-increment Record cannot
// contaminate the resumed run's inference snapshot.
func TestExecuteProgressiveFromResume(t *testing.T) {
	const sql = "SELECT region, AVG(revenue), COUNT(*) FROM sales WHERE week < 40 GROUP BY region"
	opts := ProgressiveOptions{FirstRows: 512}
	a := systemFixture(t, 30000, 0.3)
	b := systemFixture(t, 30000, 0.3)
	want := runStream(t, a, sql, opts, 0)
	if len(want) < 4 {
		t.Fatalf("only %d increments", len(want))
	}

	for cut := 1; cut < len(want); cut++ {
		// Fresh "b" per cut so each interrupted+resumed pair sees a synopsis
		// in the same state the uninterrupted run started from.
		b = systemFixture(t, 30000, 0.3)
		killed := runStream(t, b, sql, opts, cut)
		if len(killed) != cut {
			t.Fatalf("cut %d: kill consumed %d increments", cut, len(killed))
		}
		for i := range killed {
			requireSameIncrement(t, "cut "+itoa(cut)+" pre-kill "+itoa(i), killed[i], want[i])
		}
		// Age b between the disconnect and the resume.
		if _, err := b.Append(salesBatch(t, 2000, 321)); err != nil {
			t.Fatal(err)
		}
		b.RebuildSample()

		last := killed[cut-1]
		cur := ProgressiveCursor{
			SampleGen: last.res.SampleGen, Epoch: last.res.Epoch,
			BaseRows: last.res.BaseRows, SampleRows: last.res.SampleRows,
			RowsSeen: last.prog.Rows, Seq: last.prog.Seq,
		}
		var resumed []streamedInc
		res, err := b.ExecuteProgressiveFrom(context.Background(), sql, opts, cur, func(r *Result, p Progress) bool {
			resumed = append(resumed, streamedInc{res: r, prog: p})
			return true
		})
		if err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if len(resumed) != len(want)-cut {
			t.Fatalf("cut %d: resume emitted %d increments, want %d", cut, len(resumed), len(want)-cut)
		}
		if res != resumed[len(resumed)-1].res || !resumed[len(resumed)-1].prog.Final {
			t.Fatalf("cut %d: resume did not end on the final increment", cut)
		}
		for i := range resumed {
			requireSameIncrement(t, "cut "+itoa(cut)+" resumed "+itoa(i), resumed[i], want[cut+i])
		}
		// Natural exhaustion of the resumed stream records exactly what the
		// uninterrupted stream recorded.
		if got, wantN := b.Verdict().SnippetCount(), a.Verdict().SnippetCount(); got != wantN {
			t.Fatalf("cut %d: resumed system recorded %d snippets, uninterrupted %d", cut, got, wantN)
		}
		st := b.StatsSnapshot()
		if st.Progressive != 1 || st.Resumed != 1 || st.Increments != len(want) {
			t.Fatalf("cut %d: stats %+v", cut, st)
		}
	}
}

// TestExecuteProgressiveTargetStop: with TargetCI set, the stream ends at
// exactly the first increment whose raw CI meets the target — TargetMet
// set, Final clear, nothing recorded — and an unreachable target runs the
// stream to natural exhaustion.
func TestExecuteProgressiveTargetStop(t *testing.T) {
	const sql = "SELECT AVG(revenue) FROM sales WHERE week < 30"
	opts := ProgressiveOptions{FirstRows: 256}
	ref := systemFixture(t, 20000, 0.25)
	alpha := Alpha95
	want := runStream(t, ref, sql, opts, 0)
	ciAt := func(i int) float64 { return alpha * want[i].res.Rows[0].Cells[0].Raw.StdErr }
	for i := 1; i < len(want); i++ {
		if !(ciAt(i) < ciAt(i-1)) {
			t.Fatalf("raw CI not strictly shrinking at increment %d", i)
		}
	}

	// Target exactly the CI of a mid-stream increment: "≤" must stop there,
	// not one later.
	stopAt := 2
	target := ciAt(stopAt)
	s := systemFixture(t, 20000, 0.25)
	got := runStream(t, s, sql, ProgressiveOptions{FirstRows: 256, TargetCI: target}, 0)
	if len(got) != stopAt+1 {
		t.Fatalf("target stream emitted %d increments, want %d", len(got), stopAt+1)
	}
	lastP := got[len(got)-1].prog
	if !lastP.TargetMet || lastP.Final {
		t.Fatalf("closing increment progress %+v", lastP)
	}
	for i, inc := range got[:len(got)-1] {
		if inc.prog.TargetMet {
			t.Fatalf("increment %d (CI %v > target %v) claimed the target", i, ciAt(i), target)
		}
	}
	if s.Verdict().SnippetCount() != 0 {
		t.Fatal("target-stopped stream recorded a partial answer")
	}
	requireSameIncrement(t, "target stop", streamedInc{res: got[stopAt].res, prog: Progress{
		Seq: lastP.Seq, Rows: lastP.Rows, SampleRows: lastP.SampleRows,
		SimTime: lastP.SimTime,
	}}, streamedInc{res: want[stopAt].res, prog: Progress{
		Seq: want[stopAt].prog.Seq, Rows: want[stopAt].prog.Rows,
		SampleRows: want[stopAt].prog.SampleRows, SimTime: want[stopAt].prog.SimTime,
	}})

	// A relative target stops by ci/|estimate|.
	relStop := 3
	rel := ciAt(relStop) / want[relStop].res.Rows[0].Cells[0].Raw.Value
	s = systemFixture(t, 20000, 0.25)
	got = runStream(t, s, sql, ProgressiveOptions{FirstRows: 256, TargetCI: rel, TargetRelative: true}, 0)
	if len(got) != relStop+1 || !got[len(got)-1].prog.TargetMet {
		t.Fatalf("relative target stopped after %d increments, want %d", len(got), relStop+1)
	}

	// An unreachable target changes nothing: the stream exhausts and records.
	s = systemFixture(t, 20000, 0.25)
	got = runStream(t, s, sql, ProgressiveOptions{FirstRows: 256, TargetCI: 1e-12}, 0)
	if !got[len(got)-1].prog.Final || got[len(got)-1].prog.TargetMet {
		t.Fatalf("unreachable target: last progress %+v", got[len(got)-1].prog)
	}
	if s.Verdict().SnippetCount() == 0 {
		t.Fatal("exhausted stream under an unreachable target recorded nothing")
	}
}

// TestExecuteProgressiveFromCursorErrors pins the typed error contract of
// the resume path: malformed and off-schedule cursors fail with
// ErrCursorMismatch, unknown generations with aqp.ErrGenUnknown, and
// evicted generations with aqp.ErrGenEvicted.
func TestExecuteProgressiveFromCursorErrors(t *testing.T) {
	const sql = "SELECT AVG(revenue) FROM sales WHERE week < 30"
	opts := ProgressiveOptions{FirstRows: 512}
	s := systemFixture(t, 20000, 0.25)
	view := s.Engine().Acquire()
	sched := aqp.PrefixSchedule(view.SampleRows, 512)
	okCur := ProgressiveCursor{
		SampleGen: view.SampleGen, Epoch: view.Epoch,
		BaseRows: view.BaseRows, SampleRows: view.SampleRows,
		RowsSeen: sched[0], Seq: 0,
	}
	noYield := func(r *Result, p Progress) bool { return true }

	cases := []struct {
		name   string
		mutate func(c ProgressiveCursor) ProgressiveCursor
		want   error
	}{
		{"negative rows_seen", func(c ProgressiveCursor) ProgressiveCursor { c.RowsSeen = -1; return c }, ErrCursorMismatch},
		{"zero sample_rows", func(c ProgressiveCursor) ProgressiveCursor { c.SampleRows = 0; return c }, ErrCursorMismatch},
		{"off-schedule rows", func(c ProgressiveCursor) ProgressiveCursor { c.RowsSeen = sched[0] + 1; return c }, ErrCursorMismatch},
		{"seq beyond schedule", func(c ProgressiveCursor) ProgressiveCursor { c.Seq = len(sched) + 5; return c }, ErrCursorMismatch},
		{"already complete", func(c ProgressiveCursor) ProgressiveCursor {
			c.RowsSeen = view.SampleRows
			c.Seq = len(sched) - 1
			return c
		}, ErrCursorMismatch},
		{"prefix beyond generation", func(c ProgressiveCursor) ProgressiveCursor { c.SampleRows += 1000; c.BaseRows += 1000; return c }, ErrCursorMismatch},
		{"unknown generation", func(c ProgressiveCursor) ProgressiveCursor { c.SampleGen = 99; return c }, aqp.ErrGenUnknown},
	}
	for _, tc := range cases {
		if _, err := s.ExecuteProgressiveFrom(context.Background(), sql, opts, tc.mutate(okCur), noYield); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}

	// Evict generation 0 and the previously valid cursor turns into the
	// behind-horizon error the serving layer maps to 410.
	s.Engine().SetMaxRetainedGens(1)
	for i := 0; i < 3; i++ {
		s.RebuildSample()
	}
	if _, err := s.ExecuteProgressiveFrom(context.Background(), sql, opts, okCur, noYield); !errors.Is(err, aqp.ErrGenEvicted) {
		t.Fatalf("evicted cursor: err %v, want ErrGenEvicted", err)
	}
	// A valid resume still works after the churn, from the live generation.
	live := s.Engine().Acquire()
	sched = aqp.PrefixSchedule(live.SampleRows, 512)
	n := 0
	if _, err := s.ExecuteProgressiveFrom(context.Background(), sql, opts, ProgressiveCursor{
		SampleGen: live.SampleGen, Epoch: live.Epoch,
		BaseRows: live.BaseRows, SampleRows: live.SampleRows,
		RowsSeen: sched[0], Seq: 0,
	}, func(r *Result, p Progress) bool { n++; return true }); err != nil || n == 0 {
		t.Fatalf("live-generation resume: n=%d err=%v", n, err)
	}
}

// FuzzStreamCursor resumes streams from cursors mutated from the chunks of
// real streams — on a retained retired generation before and after an
// append, and on the live one — so mutations also name evicted and
// never-created generations, prefixes a generation never had, and
// positions off the schedule. Nothing may panic; every error wraps
// ErrCursorMismatch, aqp.ErrGenUnknown or aqp.ErrGenEvicted; every
// increment a resume yields has the raw cells of an ExecuteViewPrefix
// replay at its prefix, bit for bit; and no generation stays pinned.
func FuzzStreamCursor(f *testing.F) {
	sys := systemFixture(f, 4000, 0.5)
	sys.Engine().SetMaxRetainedGens(1)
	stmts := []string{
		"SELECT AVG(revenue), COUNT(*) FROM sales WHERE week BETWEEN 10 AND 30",
		"SELECT region, AVG(revenue), SUM(revenue) FROM sales WHERE week < 40 GROUP BY region",
		"SELECT COUNT(*) FROM sales WHERE week = 1 OR week = 2", // unsupported
	}
	const firstRows = 256
	seed := func() {
		for i, sql := range stmts {
			_, err := sys.ExecuteProgressive(context.Background(), sql, ProgressiveOptions{FirstRows: firstRows},
				func(r *Result, p Progress) bool {
					f.Add(uint8(i), firstRows, r.SampleGen, r.Epoch, r.BaseRows, r.SampleRows, p.Rows, p.Seq)
					return true
				})
			if err != nil {
				f.Fatal(err)
			}
		}
	}
	// Generations 0 and 1 are evicted by the time the fuzzer runs; 2 is
	// retained, with a prefix snapshot before the append, and 3 is live.
	sys.RebuildSample()
	sys.RebuildSample()
	seed()
	batch := storage.NewTable("sales_batch", sys.Engine().Base().Schema())
	rng := randx.New(5)
	for i := 0; i < 600; i++ {
		w := rng.Uniform(0, 60)
		if err := batch.AppendRow([]storage.Value{storage.Num(w), storage.Str("east"), storage.Num(50 + 2*w)}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := sys.Append(batch); err != nil {
		f.Fatal(err)
	}
	seed()
	sys.RebuildSample()
	seed()

	f.Fuzz(func(t *testing.T, stmt uint8, first int, gen, epoch uint64, baseRows, sampleRows, rowsSeen, seq int) {
		sql := stmts[int(stmt)%len(stmts)]
		cur := ProgressiveCursor{SampleGen: gen, Epoch: epoch, BaseRows: baseRows, SampleRows: sampleRows, RowsSeen: rowsSeen, Seq: seq}
		_, err := sys.ExecuteProgressiveFrom(context.Background(), sql, ProgressiveOptions{FirstRows: first, Workers: 1}, cur,
			func(r *Result, p Progress) bool {
				replay, err := sys.ExecuteViewPrefix(sys.Engine().ViewAtGen(r.SampleGen, r.BaseRows, r.SampleRows), sql, p.Rows)
				if err != nil {
					t.Fatalf("cursor %+v, increment %d: replay: %v", cur, p.Seq, err)
				}
				requireRawBits(t, fmt.Sprintf("cursor %+v, increment %d", cur, p.Seq), r, replay)
				return true
			})
		if err != nil && !errors.Is(err, ErrCursorMismatch) && !errors.Is(err, aqp.ErrGenUnknown) && !errors.Is(err, aqp.ErrGenEvicted) {
			t.Fatalf("cursor %+v: unexpected error %v", cur, err)
		}
		if n := sys.Engine().PinnedGens(); n != 0 {
			t.Fatalf("cursor %+v: %d generations pinned after the call", cur, n)
		}
	})
}
