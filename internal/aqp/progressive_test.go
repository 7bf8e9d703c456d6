package aqp

import (
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// progressiveSnips is a snippet mix that exercises every block verdict the
// vectorized scan distinguishes: bare-column AVG (BlockFull fast path on the
// full-table snippet), expression AVG, selective AVG, FREQ over a region,
// always-true FREQ (BlockFull) and never-true FREQ (BlockEmpty).
func progressiveSnips(t *testing.T, tb *storage.Table) []*query.Snippet {
	t.Helper()
	var snips []*query.Snippet
	for _, sql := range []string{
		"SELECT AVG(val) FROM t",
		"SELECT AVG(val) FROM t WHERE week >= 20 AND week < 45",
		"SELECT AVG(val * val) FROM t WHERE week >= 40",
		"SELECT COUNT(*) FROM t WHERE region = 'a'",
		"SELECT COUNT(*) FROM t WHERE week < 1000",
		"SELECT COUNT(*) FROM t WHERE week > 1000",
	} {
		snips = append(snips, snippetFor(t, tb, sql))
	}
	return snips
}

// requireIncrementEqual asserts bit-for-bit equality between a progressive
// increment and a fresh prefix scan (struct equality on float64 fields is
// exact — no tolerance).
func requireIncrementEqual(t *testing.T, label string, got, want Increment) {
	t.Helper()
	if got.Rows != want.Rows || got.Total != want.Total {
		t.Fatalf("%s: shape (rows %d/%d) vs fresh (%d/%d)", label, got.Rows, got.Total, want.Rows, want.Total)
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

// TestProgressiveMatchesFreshPrefixScan is the core replay property: every
// increment a ProgressiveScan emits equals a fresh ViewAt scan of the same
// prefix bit-for-bit, for any fold worker count. The sample spans multiple
// complete work units (unitRows = 65536 rows) so the carried-fold, the
// parallel multi-unit fold and the mid-unit tail paths all execute.
func TestProgressiveMatchesFreshPrefixScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-unit sample build is slow")
	}
	tb := buildTable(t, 200000)
	sample, err := BuildSample(tb, 0.8, 0, 11) // 160k sample rows ≈ 2.4 units
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := progressiveSnips(t, tb)
	view := e.Acquire()

	// Budgets chosen to land mid-block, mid-unit, exactly on a unit
	// boundary (65536, 131072) and at the full sample; then the sample's
	// 20 batch ends (multiples of 8000, off every block and unit boundary),
	// the schedule the paper's curves step.
	schedules := map[string][]int{
		"boundaries": {100, 4096, 5000, 40000, 65536, 70000, 131072, 150000, view.SampleRows},
		"batch ends": batchEnds(view),
	}
	if n := len(schedules["batch ends"]); n != 20 {
		t.Fatalf("batch-end schedule has %d steps, want 20", n)
	}
	for name, schedule := range schedules {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			ps := view.Progressive(snips).From(0, -1, workers)
			if ps.Total() != view.SampleRows {
				t.Fatalf("workers=%d: Total=%d, want %d", workers, ps.Total(), view.SampleRows)
			}
			var inc Increment
			for _, prefix := range schedule {
				inc = ps.Step(prefix)
				label := name + " workers=" + itoa(workers) + " prefix=" + itoa(prefix)
				if inc.Rows != prefix {
					t.Fatalf("%s: Step consumed %d rows", label, inc.Rows)
				}
				fresh := e.ViewAtGen(view.SampleGen, view.BaseRows, view.SampleRows).EvalPrefix(snips, prefix)
				requireIncrementEqual(t, label, inc, fresh)
				if inc.Final != (prefix == view.SampleRows) {
					t.Fatalf("%s: Final=%v", label, inc.Final)
				}
			}
			if !inc.Final {
				t.Fatalf("%s workers=%d: last increment not Final after consuming the sample", name, workers)
			}
		}
	}
}

// batchEnds is the prefix schedule of the sample's online-aggregation
// batches: the end of every BatchBounds, the last one the whole sample.
func batchEnds(v *View) []int {
	ends := make([]int, v.Sample.Batches())
	for b := range ends {
		_, ends[b] = v.Sample.BatchBounds(b)
	}
	return ends
}

// TestProgressiveAcrossRebuildAndAppend: a generation swap (RebuildSample)
// and streamed appends landing mid-stream must not perturb a progressive
// scan pinned to the pre-swap view, and every increment must stay
// replayable through ViewAtGen at the original generation.
func TestProgressiveAcrossRebuildAndAppend(t *testing.T) {
	tb := buildTable(t, 30000)
	sample, err := BuildSample(tb, 0.5, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := progressiveSnips(t, tb)
	view := e.Acquire()
	gen0, base0, rows0 := view.SampleGen, view.BaseRows, view.SampleRows

	ps := view.Progressive(snips)
	sched := PrefixSchedule(view.SampleRows, 512)
	var got []Increment
	for i, prefix := range sched {
		got = append(got, ps.Step(prefix))
		switch i {
		case 1:
			if _, err := e.Append(appendBatch(t, 4000, 77), 123); err != nil {
				t.Fatal(err)
			}
		case 2:
			if g, _ := e.RebuildSample(999, DefaultRebuildOptions()); g != gen0+1 {
				t.Fatalf("rebuild produced generation %d", g)
			}
		}
	}
	if e.Acquire().SampleGen != gen0+1 {
		t.Fatal("live view did not move to the new generation")
	}
	for i, inc := range got {
		replay := e.ViewAtGen(gen0, base0, rows0)
		if replay == nil {
			t.Fatal("ViewAtGen lost the pinned generation")
		}
		fresh := replay.EvalPrefix(snips, sched[i])
		requireIncrementEqual(t, "increment "+itoa(i), inc, fresh)
	}
}

// TestProgressiveStepClamps pins the Step contract: budgets never regress,
// overshoot clamps to the sample, and repeated terminal steps re-emit.
func TestProgressiveStepClamps(t *testing.T) {
	tb := buildTable(t, 5000)
	sample, err := BuildSample(tb, 0.4, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := progressiveSnips(t, tb)
	ps := e.Acquire().Progressive(snips)
	a := ps.Step(1000)
	b := ps.Step(500) // regression: clamped to the 1000-row prefix
	if b.Rows != 1000 {
		t.Fatalf("backward step consumed %d rows", b.Rows)
	}
	requireIncrementEqual(t, "clamped re-emit", b, Increment{Estimates: a.Estimates, Valid: a.Valid, Rows: a.Rows, Total: a.Total})
	c := ps.Step(1 << 30) // overshoot: clamped to the sample
	if c.Rows != ps.Total() || !c.Final {
		t.Fatalf("overshoot step: rows=%d final=%v", c.Rows, c.Final)
	}
	d := ps.Step(ps.Total())
	requireIncrementEqual(t, "terminal re-emit", d, Increment{Estimates: c.Estimates, Valid: c.Valid, Rows: c.Rows, Total: c.Total})
}

// TestPrefixSchedule pins the doubling schedule shape.
func TestPrefixSchedule(t *testing.T) {
	cases := []struct {
		total, first int
		want         []int
	}{
		{0, 64, []int{0}},
		{50, 64, []int{50}},
		{64, 64, []int{64}},
		{1000, 100, []int{100, 200, 400, 800, 1000}},
		{1024, 256, []int{256, 512, 1024}},
	}
	for _, c := range cases {
		got := PrefixSchedule(c.total, c.first)
		if len(got) != len(c.want) {
			t.Fatalf("PrefixSchedule(%d,%d)=%v, want %v", c.total, c.first, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("PrefixSchedule(%d,%d)=%v, want %v", c.total, c.first, got, c.want)
			}
		}
	}
	if s := PrefixSchedule(10000, 0); s[0] != DefaultFirstPrefix {
		t.Fatalf("default first prefix: %v", s)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
