package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/aqp"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// streamMemoFixture is memoFixture with a sample large enough for the
// default schedule to have several prefixes and for its last one to cross
// a complete work unit (65 536 rows), so a stream that misses late folds a
// carried unit before its tail.
func streamMemoFixture(t *testing.T, cfg Config) *System {
	t.Helper()
	tb := storage.NewTable("sales", memoSchema())
	fillMemoRows(t, tb, randx.New(43), 90000, 0, 52, []string{"east", "west"})
	sample, err := aqp.BuildSample(tb, 0.75, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SynopsisCap = 8
	return NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), cfg)
}

// memoDelta is how far the scan-memo counters moved.
type memoDelta struct{ reused, extended, folded, rows int }

func memoCounters(s *System) memoDelta {
	st := s.StatsSnapshot()
	return memoDelta{st.ScanMemoReused, st.ScanMemoExtended, st.ScanMemoFolded, st.ScanMemoRows}
}

func (d memoDelta) minus(e memoDelta) memoDelta {
	return memoDelta{d.reused - e.reused, d.extended - e.extended, d.folded - e.folded, d.rows - e.rows}
}

// requireStreamReplayEqual audits every chunk of one stream: the raw cells
// bit for bit, the group order and the SimTime against ExecuteViewPrefix on
// the ViewAtGen of the chunk's own snapshot, and the progress coordinates
// against the schedule (seq counting on from firstSeq, rows never past the
// sample, Final exactly at the sample's end).
func requireStreamReplayEqual(t *testing.T, sys *System, label, sql string, firstSeq int, got []streamedInc) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s: empty stream", label)
	}
	for i, inc := range got {
		res, p := inc.res, inc.prog
		where := fmt.Sprintf("%s chunk %d (rows %d)", label, i, p.Rows)
		if p.Seq != firstSeq+i || p.Rows > p.SampleRows || p.Final != (p.Rows == p.SampleRows) || p.SampleRows != res.SampleRows {
			t.Fatalf("%s: progress %+v for seq %d of a %d-row sample", where, p, firstSeq+i, res.SampleRows)
		}
		view := sys.Engine().ViewAtGen(res.SampleGen, res.BaseRows, res.SampleRows)
		if view == nil {
			t.Fatalf("%s: no replay view at (%d, %d, %d)", where, res.SampleGen, res.BaseRows, res.SampleRows)
		}
		want, err := sys.ExecuteViewPrefix(view, sql, p.Rows)
		if err != nil {
			t.Fatalf("%s: replay: %v", where, err)
		}
		if res.SimTime != want.SimTime || p.SimTime != want.SimTime {
			t.Fatalf("%s: sim time %v/%v, replay %v", where, res.SimTime, p.SimTime, want.SimTime)
		}
		if requireRawEqual(t, where, res, want); t.Failed() {
			t.FailNow()
		}
	}
}

// requireEntryBounded checks what sql's memo entry holds for streams: at
// most the default schedule's prefixes of the snapshot it stores, each
// once, each with one estimate per snippet key.
func requireEntryBounded(t *testing.T, sys *System, label, sql string) {
	t.Helper()
	sys.memo.mu.Lock()
	e := sys.memo.entries[strings.TrimSpace(sql)]
	sys.memo.mu.Unlock()
	if e == nil {
		t.Fatalf("%s: %q owns no memo entry", label, sql)
	}
	e.smu.Lock()
	defer e.smu.Unlock()
	sched := aqp.PrefixSchedule(e.stream.sampleRows, 0)
	seen := map[int]bool{}
	for _, inc := range e.stream.incs {
		if !slices.Contains(sched, inc.rows) || seen[inc.rows] {
			t.Fatalf("%s: entry stores prefix %d (schedule %v, stored before: %v)", label, inc.rows, sched, seen[inc.rows])
		}
		seen[inc.rows] = true
		if len(inc.estimates) != len(e.stream.keys) || len(inc.valid) != len(e.stream.keys) {
			t.Fatalf("%s: prefix %d stores %d estimates for %d keys", label, inc.rows, len(inc.estimates), len(e.stream.keys))
		}
	}
}

// TestStreamMemoHoldsNoData asserts, on the type, that what a memo entry
// stores for streams cannot reach a view, a table, a snippet or a scan: a
// stored increment is estimates and keys only, so an entry pins no
// generation and keeps no retired column array reachable.
func TestStreamMemoHoldsNoData(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(aqp.View{}):            true,
		reflect.TypeOf(storage.Table{}):       true,
		reflect.TypeOf(query.Snippet{}):       true,
		reflect.TypeOf(aqp.ProgressiveScan{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if forbidden[ty] {
			t.Fatalf("%s reaches %v", path, ty)
		}
		switch ty.Kind() {
		case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Fatalf("%s is a %v: what it holds cannot be checked", path, ty.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Map:
			walk(path+"{key}", ty.Key())
			walk(path+"{}", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("streamIncrements", reflect.TypeOf(streamIncrements{}))
}

// TestStreamMemoEqualsReplay streams statements through the scan memo on a
// flat and a stratified sample, across every case the memo distinguishes,
// and audits every chunk against its ExecuteViewPrefix replay bit for bit:
// a first sight and its repeat (all increments re-emitted, nothing
// scanned), a grouped statement, client-chosen schedules (served right,
// stored only where they meet the default schedule), an append and a sample
// rebuild (the stored set is replaced), a stream resumed on an older
// generation (served right, and the current snapshot's increments survive
// it), and four goroutines streaming one statement at once.
func TestStreamMemoEqualsReplay(t *testing.T) {
	for _, cfg := range []Config{{}, {NumPartitions: 4, StratumColumn: "week"}} {
		t.Run(fmt.Sprintf("parts=%d", cfg.NumPartitions), func(t *testing.T) {
			runStreamMemoCases(t, streamMemoFixture(t, cfg))
		})
	}
	// A one-row append at a 0.25 sampling fraction enters the base table but
	// not the sample: BaseRows moves alone. COUNT and SUM scale by it, so the
	// stored increments must not answer the new snapshot.
	t.Run("unsampled append", func(t *testing.T) {
		sys := memoFixture(t, Config{})
		const sql = "SELECT COUNT(*), SUM(revenue) FROM sales WHERE week BETWEEN 5 AND 40"
		for i, want := range []memoDelta{{folded: 1}, {reused: 1}, {folded: 1}, {reused: 1}} {
			if i == 2 {
				if sampled, err := sys.Append(memoBatch(t, 1, 5, 0, 52, []string{"east"})); err != nil || sampled != 0 {
					t.Fatalf("one-row append: %d sampled, %v", sampled, err)
				}
			}
			before := memoCounters(sys)
			got := collectProgressive(t, sys, sql, ProgressiveOptions{})
			d := memoCounters(sys).minus(before)
			d.rows = 0
			if d != want {
				t.Fatalf("stream %d: memo counters moved by %+v, want %+v", i, d, want)
			}
			requireStreamReplayEqual(t, sys, "stream "+itoa(i), sql, 0, got)
		}
	})
}

func runStreamMemoCases(t *testing.T, sys *System) {
	const (
		flat    = "SELECT AVG(revenue), COUNT(*) FROM sales WHERE week BETWEEN 5 AND 40"
		grouped = "SELECT region, SUM(revenue) FROM sales WHERE week < 30 GROUP BY region"
	)
	// stream runs one stream to its end, audits it, and requires the memo
	// to count it as want: a reuse scans nothing, a fold scans something.
	stream := func(label, sql string, opts ProgressiveOptions, want aqp.FoldOutcome) []streamedInc {
		t.Helper()
		before := memoCounters(sys)
		got := collectProgressive(t, sys, sql, opts)
		d := memoCounters(sys).minus(before)
		requireStreamReplayEqual(t, sys, label, sql, 0, got)
		requireEntryBounded(t, sys, label, sql)
		if want == aqp.FoldReused && d != (memoDelta{reused: 1}) ||
			want == aqp.FoldFull && (d.reused != 0 || d.extended != 0 || d.folded != 1 || d.rows <= 0) {
			t.Fatalf("%s: memo counters moved by %+v, want one %v", label, d, want)
		}
		return got
	}
	def := ProgressiveOptions{}
	first := stream("flat, first sight", flat, def, aqp.FoldFull)
	if len(first) < 5 {
		t.Fatalf("only %d increments: the fixture no longer exercises a multi-prefix schedule", len(first))
	}
	stream("flat, repeat", flat, def, aqp.FoldReused)
	stream("grouped, first sight", grouped, def, aqp.FoldFull)
	stream("grouped, repeat", grouped, def, aqp.FoldReused)

	// Client-chosen schedules: out of order, past the sample, off the
	// default doubling — each chunk is still its prefix's replay, and only
	// prefixes of the default schedule land in the entry.
	total := first[len(first)-1].prog.SampleRows
	stream("explicit schedule", flat, ProgressiveOptions{Schedule: []int{1000, 4096, 3000, 9000, 16384, total + 5}}, aqp.FoldFull)
	stream("first rows 1500", flat, ProgressiveOptions{FirstRows: 1500}, aqp.FoldFull)
	stream("flat, repeat after client schedules", flat, def, aqp.FoldReused)

	// An append moves the snapshot: the stored set is replaced, then reused.
	if _, err := sys.Append(memoBatch(t, 3000, 77, 0, 52, []string{"east", "west"})); err != nil {
		t.Fatal(err)
	}
	stream("flat, after append", flat, def, aqp.FoldFull)
	stream("flat, repeat after append", flat, def, aqp.FoldReused)

	// A stream cut short on the pre-rebuild generation, to resume later.
	var cut []streamedInc
	if _, err := sys.ExecuteProgressive(context.Background(), flat, def, func(r *Result, p Progress) bool {
		cut = append(cut, streamedInc{res: r, prog: p})
		return len(cut) < 2
	}); err != nil {
		t.Fatal(err)
	}
	sys.RebuildSample()
	stream("flat, after rebuild", flat, def, aqp.FoldFull)
	stream("flat, repeat after rebuild", flat, def, aqp.FoldReused)

	// Resume on the older generation: it is served right, reads and stores
	// nothing, and leaves the current snapshot's increments in place.
	last := cut[len(cut)-1]
	cur := ProgressiveCursor{
		SampleGen: last.res.SampleGen, Epoch: last.res.Epoch,
		BaseRows: last.res.BaseRows, SampleRows: last.res.SampleRows,
		RowsSeen: last.prog.Rows, Seq: last.prog.Seq,
	}
	before := memoCounters(sys)
	var resumed []streamedInc
	if _, err := sys.ExecuteProgressiveFrom(context.Background(), flat, def, cur, func(r *Result, p Progress) bool {
		resumed = append(resumed, streamedInc{res: r, prog: p})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if d := memoCounters(sys).minus(before); d.folded != 1 || d.reused != 0 || d.rows <= 0 {
		t.Fatalf("resume behind: memo counters moved by %+v, want one scanning fold", d)
	}
	requireStreamReplayEqual(t, sys, "resume behind", flat, cur.Seq+1, resumed)
	stream("flat, current after a resume behind", flat, def, aqp.FoldReused)

	// Four goroutines stream one statement on a fresh snapshot at once:
	// misses race to store the same bits, and every chunk is right.
	if _, err := sys.Append(memoBatch(t, 2000, 78, 0, 52, []string{"east", "west"})); err != nil {
		t.Fatal(err)
	}
	got := make([][]streamedInc, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sql := flat
			if g%2 == 1 {
				sql = "  " + flat + "\n" // trimmed to the same entry
			}
			_, err := sys.ExecuteProgressive(context.Background(), sql, def, func(r *Result, p Progress) bool {
				got[g] = append(got[g], streamedInc{res: r, prog: p})
				return true
			})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := range got {
		requireStreamReplayEqual(t, sys, fmt.Sprintf("concurrent stream %d", g), flat, 0, got[g])
	}
	requireEntryBounded(t, sys, "after concurrent streams", flat)
	stream("flat, repeat after concurrent streams", flat, def, aqp.FoldReused)

	if n := sys.Engine().PinnedGens(); n != 0 {
		t.Fatalf("%d generations still pinned with every stream finished", n)
	}
}
