package aqp

import (
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// appendBatch builds a batch against its own schema (name/kind-compatible
// with buildTable's relation) the way a streaming producer would.
func appendBatch(t *testing.T, rows int, seed int64) *storage.Table {
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
		region := "a"
		if rng.Bool(0.5) {
			region = "b"
		}
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week), storage.Str(region), storage.Num(10 + week),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// An in-flight view must be unaffected by appends; a fresh view must see
// them; ViewAt must reproduce the old view's raw answers exactly.
func TestEngineAppendViewIsolation(t *testing.T) {
	tb := buildTable(t, 20000)
	s, err := BuildSample(tb, 0.25, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, s, CachedCost)
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t WHERE week < 40")

	before := e.Acquire()
	updBefore := before.RunToCompletion([]*query.Snippet{sn})

	if _, err := e.Append(appendBatch(t, 5000, 11), 99); err != nil {
		t.Fatal(err)
	}
	after := e.Acquire()
	if after == before {
		t.Fatal("append did not republish the view")
	}
	if after.BaseRows != 25000 {
		t.Fatalf("after.BaseRows=%d, want 25000", after.BaseRows)
	}
	if after.SampleRows <= before.SampleRows {
		t.Fatalf("sample did not grow: %d -> %d", before.SampleRows, after.SampleRows)
	}

	// The pinned view still answers from its stable prefix.
	replayNow := before.RunToCompletion([]*query.Snippet{sn})
	if replayNow.Estimates[0] != updBefore.Estimates[0] {
		t.Fatalf("pinned view answer moved: %+v -> %+v", updBefore.Estimates[0], replayNow.Estimates[0])
	}
	// And ViewAtGen reconstructs it from the grown tables.
	replay := e.ViewAtGen(before.SampleGen, before.BaseRows, before.SampleRows).RunToCompletion([]*query.Snippet{sn})
	if replay.Estimates[0] != updBefore.Estimates[0] {
		t.Fatalf("ViewAtGen replay differs: %+v vs %+v", updBefore.Estimates[0], replay.Estimates[0])
	}
}

// Acquire must return the cached view while nothing changes, and queries
// racing with streaming appends must be race-free with stable per-view
// answers (run under -race).
func TestEngineConcurrentAppendScan(t *testing.T) {
	tb := buildTable(t, 10000)
	s, err := BuildSample(tb, 0.3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, s, CachedCost)
	if v1, v2 := e.Acquire(), e.Acquire(); v1 != v2 {
		t.Fatal("Acquire rebuilt an unchanged view")
	}
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t WHERE week >= 20 AND week < 70")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := e.Append(appendBatch(t, 500, int64(100+i)), int64(i)); err != nil {
				panic(err)
			}
		}
	}()
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				v := e.Acquire()
				a := v.RunToCompletion([]*query.Snippet{sn})
				b := v.RunToCompletion([]*query.Snippet{sn})
				if a.Estimates[0] != b.Estimates[0] {
					errs <- errNondeterministic
					return
				}
				_ = v.Exact(sn)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

var errNondeterministic = &nondeterministicError{}

type nondeterministicError struct{}

func (*nondeterministicError) Error() string {
	return "same view returned different answers"
}
