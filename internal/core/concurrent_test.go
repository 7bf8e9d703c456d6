package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/randx"
	"repro/internal/storage"
)

// salesBatch builds a streaming batch against its own schema (name/kind
// compatible with systemFixture's relation), with a deliberate drift in the
// revenue intercept so appends exercise the Appendix D adjustment.
func salesBatch(t *testing.T, rows int, seed int64) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("sales_batch", schema)
	rng := randx.New(seed)
	regions := []string{"east", "west"}
	for i := 0; i < rows; i++ {
		w := rng.Uniform(0, 52)
		rg := regions[rng.Intn(2)]
		rev := 55 + 2*w + rng.Normal(0, 3)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(w), storage.Str(rg), storage.Num(rev),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

var concurrentQueries = []string{
	"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 15",
	"SELECT COUNT(*) FROM sales WHERE region = 'east'",
	"SELECT AVG(revenue) FROM sales WHERE week < 30",
	"SELECT region, AVG(revenue) FROM sales GROUP BY region",
	"SELECT SUM(revenue) FROM sales WHERE week >= 20 AND week <= 40",
	"SELECT COUNT(*) FROM sales WHERE week > 26",
}

// rawCells flattens a result's raw estimates for comparison.
func rawCells(res *Result) []float64 {
	var out []float64
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			out = append(out, c.Raw.Value, c.Raw.StdErr)
		}
	}
	return out
}

func improvedCells(res *Result) []float64 {
	var out []float64
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			out = append(out, c.Improved.Value, c.Improved.StdErr)
		}
	}
	return out
}

// The acceptance scenario: 8 concurrent sessions issue queries while a
// background goroutine streams append batches into the shared relation.
// Every answer must match a serial replay against the same snapshot epoch
// — reconstructed from the (BaseRows, SampleRows) prefix the result pins —
// and the whole storm must be race-free under -race.
func TestConcurrentSessionsWithStreamingAppends(t *testing.T) {
	sys := systemFixture(t, 20000, 0.2)

	// Warm the synopsis so inference participates in the storm.
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
	const sessions = 8
	const queriesPerSession = 12
	results := make([][]served, sessions)

	// Interleaving is a precondition, not a race the appender usually wins:
	// the appender lands its first batch only after some query has been
	// served on the boot epoch, and session query k waits until k batches
	// have landed, so every query k ≥ 1 is served on a later epoch.
	var sessionsWG, appenderWG sync.WaitGroup
	stop := make(chan struct{})
	appenderDone := make(chan struct{})
	firstServed := make(chan struct{})
	var firstOnce sync.Once
	appendErr := make(chan error, 1)
	appenderWG.Add(1)
	go func() { // streaming appender
		defer appenderWG.Done()
		defer close(appenderDone)
		select {
		case <-firstServed:
		case <-stop:
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.Append(salesBatch(t, 400, int64(1000+i))); err != nil {
				select {
				case appendErr <- err:
				default:
				}
				return
			}
		}
	}()
	queryErr := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		sessionsWG.Add(1)
		go func(s int) {
			defer sessionsWG.Done()
			for k := 0; k < queriesPerSession; k++ {
				for sys.StatsSnapshot().Appends < k {
					select {
					case <-appenderDone:
						queryErr <- fmt.Errorf("session %d: appender stopped before batch %d", s, k)
						return
					default:
						runtime.Gosched()
					}
				}
				sql := concurrentQueries[(s+k)%len(concurrentQueries)]
				res, err := sys.Execute(sql)
				if err != nil {
					queryErr <- fmt.Errorf("session %d: %w", s, err)
					return
				}
				results[s] = append(results[s], served{sql: sql, res: res})
				firstOnce.Do(func() { close(firstServed) })
			}
		}(s)
	}
	sessionsWG.Wait()
	close(stop)
	appenderWG.Wait()
	select {
	case err := <-appendErr:
		t.Fatal(err)
	default:
	}
	select {
	case err := <-queryErr:
		t.Fatal(err)
	default:
	}

	st := sys.StatsSnapshot()
	if st.Appends == 0 {
		t.Fatal("appender never landed a batch")
	}

	// Serial replay: rebuild each result's view from its pinned prefix and
	// re-run the scan. Raw answers are a pure function of the view, so they
	// must match float-for-float; the improved overlay depends on the
	// synopsis state at serve time and is validated separately.
	engine := sys.Engine()
	replayed := 0
	epochs := map[int]bool{}
	for s := range results {
		for _, sv := range results[s] {
			view := engine.ViewAtGen(sv.res.SampleGen, sv.res.BaseRows, sv.res.SampleRows)
			rep, err := sys.ExecuteView(view, sv.sql)
			if err != nil {
				t.Fatal(err)
			}
			got, want := rawCells(rep), rawCells(sv.res)
			if len(got) != len(want) {
				t.Fatalf("replay shape differs for %q at base=%d: %d vs %d cells",
					sv.sql, sv.res.BaseRows, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("replay mismatch for %q at base=%d sample=%d cell %d: served %v, replay %v",
						sv.sql, sv.res.BaseRows, sv.res.SampleRows, i, want[i], got[i])
				}
			}
			replayed++
			epochs[sv.res.BaseRows] = true
		}
	}
	if replayed != sessions*queriesPerSession {
		t.Fatalf("replayed %d results, want %d", replayed, sessions*queriesPerSession)
	}
	if len(epochs) < 2 {
		t.Fatalf("queries all served from %d epoch(s); appends never interleaved", len(epochs))
	}
}

// Determinism: the same queries issued by 8 parallel sessions against a
// quiescent system must produce exactly the answers a serial run produces
// — raw answers bit-identical, improved answers within numerical jitter of
// the factorization rebuild order.
func TestParallelQueriesMatchSerial(t *testing.T) {
	build := func() *System { return systemFixture(t, 20000, 0.2) }

	// Serial reference: warm, train, then one pass of every query.
	ref := build()
	for _, q := range concurrentQueries {
		if _, err := ref.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Verdict().Train(); err != nil {
		t.Fatal(err)
	}
	serial := map[string]*Result{}
	for _, q := range concurrentQueries {
		res, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		serial[q] = res
	}

	// Concurrent run on an identically prepared system.
	sys := build()
	for _, q := range concurrentQueries {
		if _, err := sys.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Verdict().Train(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	type answer struct {
		sql      string
		raw, imp []float64
	}
	answers := make(chan answer, 8*len(concurrentQueries))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < len(concurrentQueries); k++ {
				sql := concurrentQueries[(w+k)%len(concurrentQueries)]
				res, err := sys.Execute(sql)
				if err != nil {
					errCh <- err
					return
				}
				answers <- answer{sql: sql, raw: rawCells(res), imp: improvedCells(res)}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	close(answers)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for a := range answers {
		want := serial[a.sql]
		wraw, wimp := rawCells(want), improvedCells(want)
		if len(a.raw) != len(wraw) {
			t.Fatalf("%q: shape %d vs %d", a.sql, len(a.raw), len(wraw))
		}
		for i := range a.raw {
			if a.raw[i] != wraw[i] {
				t.Fatalf("%q raw cell %d: parallel %v, serial %v", a.sql, i, a.raw[i], wraw[i])
			}
		}
		for i := range a.imp {
			diff := math.Abs(a.imp[i] - wimp[i])
			scale := math.Max(math.Abs(wimp[i]), 1)
			if diff/scale > 1e-6 {
				t.Fatalf("%q improved cell %d: parallel %v, serial %v", a.sql, i, a.imp[i], wimp[i])
			}
		}
	}
}

// An append between acquiring a view and executing against it must not leak
// into the pinned query — the System-level statement of "appends during a
// scan never change an in-flight query's result".
func TestAppendInvisibleToPinnedView(t *testing.T) {
	sys := systemFixture(t, 20000, 0.2)
	const sql = "SELECT AVG(revenue) FROM sales WHERE week < 26"
	view := sys.Engine().Acquire()
	before, err := sys.ExecuteView(view, sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Append(salesBatch(t, 5000, 77)); err != nil {
		t.Fatal(err)
	}
	again, err := sys.ExecuteView(view, sql)
	if err != nil {
		t.Fatal(err)
	}
	b, a := rawCells(before), rawCells(again)
	for i := range b {
		if b[i] != a[i] {
			t.Fatalf("pinned view drifted after append: %v -> %v", b[i], a[i])
		}
	}
	// A fresh view does see the appended rows.
	fresh, err := sys.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.BaseRows != 25000 {
		t.Fatalf("fresh BaseRows=%d, want 25000", fresh.BaseRows)
	}
}

// Live stats reads while queries and appends are in flight must be
// race-free and internally consistent.
func TestStatsSnapshotLive(t *testing.T) {
	sys := systemFixture(t, 10000, 0.3)
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for k := 0; k < 10; k++ {
				if _, err := sys.Execute(concurrentQueries[(w+k)%len(concurrentQueries)]); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < 5; i++ {
			if _, err := sys.Append(salesBatch(t, 200, int64(i))); err != nil {
				panic(err)
			}
		}
	}()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := sys.StatsSnapshot()
			if st.Supported > st.Total {
				panic("stats torn: supported > total")
			}
		}
	}()
	workers.Wait()
	close(stop)
	reader.Wait()
	st := sys.StatsSnapshot()
	if st.Total != 40 || st.Appends != 5 {
		t.Fatalf("stats: %+v", st)
	}
}
