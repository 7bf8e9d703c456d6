package aqp

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// progressiveIncrements drives a fresh ProgressiveScan over sched and
// returns every emitted increment.
func progressiveIncrements(v *View, snips []*query.Snippet, sched []int, workers int) []Increment {
	ps := v.ProgressiveFrom(snips, 0, -1, workers)
	out := make([]Increment, 0, len(sched))
	for _, prefix := range sched {
		out = append(out, ps.Step(prefix))
	}
	return out
}

// TestProgressiveFromResume is the resume property at the engine layer: for
// every cut point k, a scan re-entered at (sched[k], k) via ProgressiveFrom
// emits increments k+1..n bit-identical to the uninterrupted scan's — even
// when the resume happens against a PinGen-reconstructed view after appends
// and a sample rebuild have moved the live engine past the stream's
// generation.
func TestProgressiveFromResume(t *testing.T) {
	tb := buildTable(t, 30000)
	sample, err := BuildSample(tb, 0.5, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := progressiveSnips(t, tb)
	view := e.Acquire()
	gen0, base0, rows0 := view.SampleGen, view.BaseRows, view.SampleRows
	sched := PrefixSchedule(view.SampleRows, 512)
	want := progressiveIncrements(view, snips, sched, 0)

	// Age the engine between the "disconnect" and every resume: the resumed
	// view must come from the retired generation, not the live one.
	if _, err := e.Append(appendBatch(t, 3000, 77), 123); err != nil {
		t.Fatal(err)
	}
	if g, _ := e.RebuildSample(999, DefaultRebuildOptions()); g != gen0+1 {
		t.Fatalf("rebuild produced generation %d", g)
	}

	for k := 0; k < len(sched)-1; k++ {
		rv, release, err := e.PinGen(gen0, base0, rows0)
		if err != nil {
			t.Fatalf("cut %d: PinGen: %v", k, err)
		}
		ps := rv.ProgressiveFrom(snips, sched[k], k, 0)
		var inc Increment
		for i := k + 1; i < len(sched); i++ {
			inc = ps.Step(sched[i])
			if inc.Seq != want[i].Seq {
				t.Fatalf("cut %d step %d: seq %d, want %d", k, i, inc.Seq, want[i].Seq)
			}
			if inc.Final != want[i].Final {
				t.Fatalf("cut %d step %d: final %v, want %v", k, i, inc.Final, want[i].Final)
			}
			requireIncrementEqual(t, "cut "+itoa(k)+" step "+itoa(i), inc, want[i])
		}
		if !inc.Final {
			t.Fatalf("cut %d: resumed scan's last increment not Final after exhausting the sample", k)
		}
		release()
	}
}

// TestProgressiveFromResumeMultiUnit exercises the complete-unit fold paths
// of the resume entry: cuts below, exactly on and past unit boundaries
// (unitRows = 65536), across fold worker counts.
func TestProgressiveFromResumeMultiUnit(t *testing.T) {
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
	sched := []int{4096, 40000, 65536, 70000, 131072, 150000, view.SampleRows}
	want := progressiveIncrements(view, snips, sched, 0)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for k := 0; k < len(sched)-1; k++ {
			ps := view.ProgressiveFrom(snips, sched[k], k, workers)
			for i := k + 1; i < len(sched); i++ {
				inc := ps.Step(sched[i])
				requireIncrementEqual(t, "workers="+itoa(workers)+" cut="+itoa(k)+" step="+itoa(i), inc, want[i])
			}
		}
	}
}

// TestMaxRetainedGensEviction: with a bound of 2, only the two newest
// retired generations survive; the horizon advances, evicted generations
// fail ViewAtGen (nil) and PinGen (ErrGenEvicted), retained ones still
// replay, and a future generation reports ErrGenUnknown.
func TestMaxRetainedGensEviction(t *testing.T) {
	tb := buildTable(t, 8000)
	sample, err := BuildSample(tb, 0.4, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	e.SetMaxRetainedGens(2)
	view := e.Acquire()
	base0, rows0 := view.BaseRows, view.SampleRows
	for i := 0; i < 5; i++ {
		e.RebuildSample(int64(100+i), DefaultRebuildOptions())
	}
	// Generations 0..4 were retired; the bound keeps {3, 4}, live is 5.
	if got := e.RetainedGens(); got != 2 {
		t.Fatalf("retained %d generations, want 2", got)
	}
	if h := e.ReplayHorizon(); h != 3 {
		t.Fatalf("replay horizon %d, want 3", h)
	}
	if v := e.ViewAtGen(2, base0, rows0); v != nil {
		t.Fatal("ViewAtGen returned an evicted generation")
	}
	if _, _, err := e.PinGen(2, base0, rows0); !errors.Is(err, ErrGenEvicted) {
		t.Fatalf("PinGen(evicted) = %v, want ErrGenEvicted", err)
	}
	if _, _, err := e.PinGen(99, base0, rows0); !errors.Is(err, ErrGenUnknown) {
		t.Fatalf("PinGen(future) = %v, want ErrGenUnknown", err)
	}
	for gen := uint64(3); gen <= 5; gen++ {
		v, release, err := e.PinGen(gen, base0, rows0)
		if err != nil || v == nil || v.SampleGen != gen {
			t.Fatalf("PinGen(%d) = (%v, %v)", gen, v, err)
		}
		release()
		release() // idempotent
	}
}

// TestPinBlocksEviction: a generation pinned by a live stream survives any
// retention pressure (eviction is oldest-first and stops at the pin), and
// releasing the pin restores the bound immediately.
func TestPinBlocksEviction(t *testing.T) {
	tb := buildTable(t, 8000)
	sample, err := BuildSample(tb, 0.4, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	e.SetMaxRetainedGens(1)
	pinned, release := e.AcquirePinned()
	snips := progressiveSnips(t, tb)
	before := pinned.EvalPrefix(snips, 1000)

	for i := 0; i < 3; i++ {
		e.RebuildSample(int64(200+i), DefaultRebuildOptions())
	}
	// Generation 0 is pinned, so nothing newer may be evicted either:
	// retired = {0, 1, 2}, all held.
	if got := e.RetainedGens(); got != 3 {
		t.Fatalf("retained %d generations under a live pin, want 3", got)
	}
	if h := e.ReplayHorizon(); h != 0 {
		t.Fatalf("replay horizon %d under a live pin, want 0", h)
	}
	rv, rrelease, err := e.PinGen(0, pinned.BaseRows, pinned.SampleRows)
	if err != nil {
		t.Fatalf("PinGen(pinned gen) = %v", err)
	}
	requireIncrementEqual(t, "pinned replay", rv.EvalPrefix(snips, 1000), before)
	rrelease()

	// Dropping the stream's pin evicts down to the bound at once.
	release()
	if got := e.RetainedGens(); got != 1 {
		t.Fatalf("retained %d generations after release, want 1", got)
	}
	if h := e.ReplayHorizon(); h != 2 {
		t.Fatalf("replay horizon %d after release, want 2", h)
	}
	if _, _, err := e.PinGen(0, pinned.BaseRows, pinned.SampleRows); !errors.Is(err, ErrGenEvicted) {
		t.Fatalf("PinGen(released gen) = %v, want ErrGenEvicted", err)
	}
}

// TestSetMaxRetainedGensRetroactive: lowering the bound on a long-lived
// engine evicts immediately, not at the next rebuild; 0 disables eviction.
func TestSetMaxRetainedGensRetroactive(t *testing.T) {
	tb := buildTable(t, 6000)
	sample, err := BuildSample(tb, 0.4, 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	for i := 0; i < 4; i++ {
		e.RebuildSample(int64(300+i), DefaultRebuildOptions())
	}
	if got := e.RetainedGens(); got != 4 {
		t.Fatalf("unbounded engine retained %d generations, want 4", got)
	}
	e.SetMaxRetainedGens(1)
	if got, h := e.RetainedGens(), e.ReplayHorizon(); got != 1 || h != 3 {
		t.Fatalf("after lowering the bound: retained %d (want 1), horizon %d (want 3)", got, h)
	}
}

// BenchmarkProgressiveResume measures the cursor entry cost: one
// ProgressiveFrom fold of a mid-sample prefix plus the remaining
// increments. It should scale with the sample size (one fold), not with
// the number of increments already consumed.
func BenchmarkProgressiveResume(b *testing.B) {
	tb := buildTable(b, 200000)
	sample, err := BuildSample(tb, 0.8, 0, 11)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	snips := []*query.Snippet{snippetFor(b, tb, "SELECT AVG(val) FROM t WHERE week >= 20 AND week < 45")}
	view := e.Acquire()
	sched := PrefixSchedule(view.SampleRows, storage.BlockSize)
	cut := len(sched) - 2 // resume just before the final increment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := view.ProgressiveFrom(snips, sched[cut], cut, 0)
		for _, prefix := range sched[cut+1:] {
			ps.Step(prefix)
		}
	}
}
