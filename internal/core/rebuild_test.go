package core

import (
	"sync"
	"testing"
)

// replayViaGen replays a served result against the generation-aware view
// and fails on any float difference in the raw cells.
func replayViaGen(t *testing.T, sys *System, sql string, res *Result) {
	t.Helper()
	view := sys.Engine().ViewAtGen(res.SampleGen, res.BaseRows, res.SampleRows)
	if view == nil {
		t.Fatalf("ViewAtGen(%d, %d, %d) = nil", res.SampleGen, res.BaseRows, res.SampleRows)
	}
	rep, err := sys.ExecuteView(view, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rawCells(rep), rawCells(res)
	if len(got) != len(want) {
		t.Fatalf("replay shape for %q at gen %d: %d vs %d cells", sql, res.SampleGen, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("replay mismatch for %q at gen=%d base=%d sample=%d cell %d: served %v, replay %v",
				sql, res.SampleGen, res.BaseRows, res.SampleRows, i, want[i], got[i])
		}
	}
}

// Queries served before, between and after sample rebuilds must all replay
// float-identically from their (SampleGen, BaseRows, SampleRows) triple —
// the system-level guarantee that an epoch swap never corrupts the audit
// trail.
func TestRebuildEpochReplay(t *testing.T) {
	sys := systemFixture(t, 20000, 0.2)
	for _, q := range concurrentQueries {
		if _, err := sys.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Verdict().Train(); err != nil {
		t.Fatal(err)
	}

	type served struct {
		sql string
		res *Result
	}
	var history []served
	runAll := func() {
		for _, q := range concurrentQueries[:3] {
			res, err := sys.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			history = append(history, served{q, res})
		}
	}

	runAll() // gen 0
	if _, err := sys.Append(salesBatch(t, 3000, 7)); err != nil {
		t.Fatal(err)
	}
	runAll() // gen 0, appended
	gen, rows := sys.RebuildSample()
	if gen != 1 || rows == 0 {
		t.Fatalf("rebuild -> gen=%d rows=%d", gen, rows)
	}
	runAll() // gen 1
	if _, err := sys.Append(salesBatch(t, 2000, 8)); err != nil {
		t.Fatal(err)
	}
	if gen, _ := sys.RebuildSample(); gen != 2 {
		t.Fatalf("second rebuild gen=%d", gen)
	}
	runAll() // gen 2

	gens := map[uint64]bool{}
	for _, sv := range history {
		gens[sv.res.SampleGen] = true
		replayViaGen(t, sys, sv.sql, sv.res)
	}
	if len(gens) != 3 {
		t.Fatalf("history spans %d generations, want 3", len(gens))
	}
	if st := sys.StatsSnapshot(); st.Rebuilds != 2 {
		t.Fatalf("Rebuilds=%d want 2", st.Rebuilds)
	}
}

// The storm with epoch swaps: sessions query while one goroutine streams
// appends and another rebuilds the sample. Every answer must replay
// float-identically via its generation triple, and the whole run must be
// race-free under -race.
func TestConcurrentQueriesAcrossRebuilds(t *testing.T) {
	sys := systemFixture(t, 20000, 0.2)
	for _, q := range concurrentQueries {
		if _, err := sys.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Verdict().Train(); err != nil {
		t.Fatal(err)
	}

	type served struct {
		sql string
		res *Result
	}
	const sessions = 4
	const queriesPerSession = 10
	results := make([][]served, sessions)

	stop := make(chan struct{})
	var bgWG, qWG sync.WaitGroup
	errCh := make(chan error, sessions+2)

	bgWG.Add(2)
	go func() { // streaming appender
		defer bgWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.Append(salesBatch(t, 300, int64(2000+i))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() { // periodic rebuilder
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.RebuildSample()
		}
	}()
	for s := 0; s < sessions; s++ {
		qWG.Add(1)
		go func(s int) {
			defer qWG.Done()
			// Past its quota a session keeps querying until a rebuild has
			// landed: memo-served queries can all finish before the
			// rebuilder is first scheduled, and the storm must overlap an
			// epoch swap however the goroutines are scheduled.
			for k := 0; k < queriesPerSession || sys.StatsSnapshot().Rebuilds == 0; k++ {
				sql := concurrentQueries[(s+k)%len(concurrentQueries)]
				res, err := sys.Execute(sql)
				if err != nil {
					errCh <- err
					return
				}
				results[s] = append(results[s], served{sql, res})
			}
		}(s)
	}
	qWG.Wait()
	close(stop)
	bgWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if st := sys.StatsSnapshot(); st.Rebuilds == 0 {
		t.Fatal("rebuilder never ran")
	}
	for s := range results {
		for _, sv := range results[s] {
			replayViaGen(t, sys, sv.sql, sv.res)
		}
	}
}
