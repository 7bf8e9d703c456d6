package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/aqp"
	"repro/internal/randx"
	"repro/internal/storage"
)

// unitRows is the row span of aqp's work unit (16 storage blocks): the tail
// of a carried fold keeps its complete units and re-covers the partial one.
const unitRows = 16 * storage.BlockSize

// memoFixture builds a System over a sales relation with a third,
// low-cardinality numeric dimension (tier): GROUP BY region takes the
// one-pass discovery fold, GROUP BY tier the flat per-group snippet list,
// so both shapes of the carried fold are served through the memo. The
// synopsis is kept tiny — the memo is about the raw half of a request — and
// Nmax 2 makes a third region or the three tiers truncate.
func memoFixture(t *testing.T, cfg Config) *System {
	t.Helper()
	tb := storage.NewTable("sales", memoSchema())
	fillMemoRows(t, tb, randx.New(42), 8000, 0, 52, []string{"east", "west"})
	sample, err := aqp.BuildSample(tb, 0.25, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SynopsisCap, cfg.Nmax = 8, 2
	return NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), cfg)
}

func memoSchema() *storage.Schema {
	return storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "tier", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
	})
}

func fillMemoRows(t *testing.T, tb *storage.Table, rng *randx.Source, rows int, lo, hi float64, regions []string) {
	t.Helper()
	for i := 0; i < rows; i++ {
		w := rng.Uniform(lo, hi)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(w), storage.Str(regions[rng.Intn(len(regions))]),
			storage.Num(float64(1 + rng.Intn(3))), storage.Num(50 + 2*w + rng.Normal(0, 3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func memoBatch(t *testing.T, rows int, seed int64, lo, hi float64, regions []string) *storage.Table {
	t.Helper()
	tb := storage.NewTable("sales_batch", memoSchema())
	fillMemoRows(t, tb, randx.New(seed), rows, lo, hi, regions)
	return tb
}

// memoStmt is one statement of the test pool with what the test knows about
// its memo entry.
type memoStmt struct {
	sql string
	// sensitive statements can rebind on an append: an open-ended range is
	// clipped to a domain that may widen, a discovery spec packs group codes
	// at a width the dictionary may outgrow.
	sensitive bool

	seen  bool      // has an entry (asked since the last flood)
	at    [3]uint64 // the snapshot the entry last answered on
	moved bool      // a domain- or dictionary-changing append landed since the last ask
}

func viewTriple(v *aqp.View) [3]uint64 {
	return [3]uint64{v.SampleGen, uint64(v.BaseRows), uint64(v.SampleRows)}
}

// requireReplayEqual is the memo's whole contract: a served Result's raw
// cells, group order, truncation flag and provenance are exactly what a
// fresh reference scan of the pinned snapshot produces.
func requireReplayEqual(t *testing.T, sys *System, label, sql string, res *Result) {
	t.Helper()
	view := sys.Engine().ViewAtGen(res.SampleGen, res.BaseRows, res.SampleRows)
	if view == nil {
		t.Errorf("%s: no replay view at (%d, %d, %d)", label, res.SampleGen, res.BaseRows, res.SampleRows)
		return
	}
	want, err := sys.ExecuteView(view, sql)
	if err != nil {
		t.Errorf("%s: replay: %v", label, err)
		return
	}
	if res.SampleGen != want.SampleGen || res.BaseRows != want.BaseRows || res.SampleRows != want.SampleRows {
		t.Errorf("%s: provenance (%d,%d,%d), replay (%d,%d,%d)", label,
			res.SampleGen, res.BaseRows, res.SampleRows, want.SampleGen, want.BaseRows, want.SampleRows)
	}
	requireRawEqual(t, label, res, want)
}

// requireRawEqual reports where res's raw cells, group order or truncation
// flag differ from the reference want's, comparing cells bit for bit.
func requireRawEqual(t *testing.T, label string, res, want *Result) {
	t.Helper()
	if res.GroupsTruncated != want.GroupsTruncated || len(res.Rows) != len(want.Rows) {
		t.Errorf("%s: %d rows truncated=%v, replay %d rows truncated=%v", label,
			len(res.Rows), res.GroupsTruncated, len(want.Rows), want.GroupsTruncated)
		return
	}
	for i, row := range res.Rows {
		if fmt.Sprint(row.Group) != fmt.Sprint(want.Rows[i].Group) || len(row.Cells) != len(want.Rows[i].Cells) {
			t.Errorf("%s: row %d is group %v, replay %v", label, i, row.Group, want.Rows[i].Group)
			return
		}
		for j, c := range row.Cells {
			w := want.Rows[i].Cells[j].Raw
			if math.Float64bits(c.Raw.Value) != math.Float64bits(w.Value) ||
				math.Float64bits(c.Raw.StdErr) != math.Float64bits(w.StdErr) ||
				math.Float64bits(c.Raw.PopErr) != math.Float64bits(w.PopErr) {
				t.Errorf("%s: row %d cell %d raw %+v, replay %+v", label, i, j, c.Raw, w)
			}
		}
	}
}

// TestScanMemoEqualsReplay drives seeded random interleavings of repeated,
// new and grouped queries with appends (plain, domain-widening,
// dictionary-growing), sample rebuilds (flat and stratified), Train, queries
// on a stale pinned view and one flood of more distinct statements than the
// memo holds, with two reader goroutines querying a shared pool across
// every mutation. Every served Result must equal its ExecuteView replay bit
// for bit, and the memo counters must show the case each query ran as:
// nothing scanned for a repeat on an unchanged sample, only the appended
// rows after an append, a full fold for a first sight, after a rebuild, after
// eviction and for a view behind the carried prefix.
func TestScanMemoEqualsReplay(t *testing.T) {
	seqs, ops := 6, 48
	if testing.Short() {
		seqs = 2
	}
	layouts := []Config{{}, {NumPartitions: 4, StratumColumn: "week"}}
	for li, cfg := range layouts {
		for seq := 0; seq < seqs; seq++ {
			runMemoSequence(t, cfg, int64(100*li+seq), ops, li == 0 && seq == 0)
		}
	}
}

func runMemoSequence(t *testing.T, cfg Config, seed int64, ops int, flood bool) {
	sys := memoFixture(t, cfg)
	eng := sys.Engine()
	rng := randx.New(seed)
	label := func(op string, i int) string {
		return fmt.Sprintf("seed %d parts %d op %d %s", seed, cfg.NumPartitions, i, op)
	}

	pool := []*memoStmt{
		{sql: "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 15"},
		{sql: "SELECT COUNT(*) FROM sales WHERE region = 'east' AND week BETWEEN 10 AND 30"},
		{sql: "SELECT SUM(revenue), AVG(revenue) FROM sales WHERE week >= 20 AND week <= 40"},
		{sql: "SELECT tier, SUM(revenue) FROM sales WHERE week BETWEEN 10 AND 40 GROUP BY tier"},
		{sql: "SELECT COUNT(*) FROM sales WHERE week > 26", sensitive: true},
		{sql: "SELECT AVG(revenue) FROM sales WHERE week < 30", sensitive: true},
		{sql: "SELECT region, AVG(revenue), COUNT(*) FROM sales WHERE week BETWEEN 5 AND 45 GROUP BY region", sensitive: true},
		{sql: "SELECT region, SUM(revenue) FROM sales GROUP BY region", sensitive: true},
	}
	readerPool := []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 12 AND 33",
		"SELECT region, COUNT(*) FROM sales WHERE week BETWEEN 2 AND 50 GROUP BY region",
		"SELECT COUNT(*) FROM sales WHERE week >= 40",
	}
	regions := []string{"east", "west"}
	boot := eng.Acquire()
	fresh := 0

	// ask serves one statement on view through the recorded one-shot path,
	// audits the Result and requires the memo to have run it as one of want.
	ask := func(what string, st *memoStmt, view *aqp.View, want ...aqp.FoldOutcome) {
		t.Helper()
		before := sys.StatsSnapshot()
		res, _, err := sys.execute(view, st.sql, 0)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := sys.StatsSnapshot()
		requireReplayEqual(t, sys, what, st.sql, res)
		if viewTriple(view) != [3]uint64{res.SampleGen, uint64(res.BaseRows), uint64(res.SampleRows)} {
			t.Fatalf("%s: served from (%d,%d,%d), asked on %v", what, res.SampleGen, res.BaseRows, res.SampleRows, viewTriple(view))
		}
		// Exactly one outcome counter moved, by one, and it is a wanted one.
		delta := [3]int{
			aqp.FoldReused:   after.ScanMemoReused - before.ScanMemoReused,
			aqp.FoldExtended: after.ScanMemoExtended - before.ScanMemoExtended,
			aqp.FoldFull:     after.ScanMemoFolded - before.ScanMemoFolded,
		}
		rows := after.ScanMemoRows - before.ScanMemoRows
		got, ok := aqp.FoldOutcome(slices.Index(delta[:], 1)), false
		for _, w := range want {
			ok = ok || (w == got && delta[0]+delta[1]+delta[2] == 1)
		}
		if !ok {
			t.Fatalf("%s: memo counters (reused, extended, folded) moved by %v, want one of %v", what, delta, want)
		}
		switch got {
		case aqp.FoldReused:
			ok = rows == 0
		case aqp.FoldExtended:
			ok = rows <= view.SampleRows-int(st.at[2])+unitRows
		default:
			ok = rows == view.SampleRows
		}
		if !ok {
			t.Fatalf("%s: %v folded %d rows (sample %d, last asked at %d)", what, got, rows, view.SampleRows, st.at[2])
		}
	}
	// query asks st on the current view with the outcome its history implies.
	query := func(what string, st *memoStmt) {
		t.Helper()
		cur := eng.Acquire()
		want := []aqp.FoldOutcome{aqp.FoldExtended}
		switch {
		case !st.seen || st.at[0] != cur.SampleGen:
			want[0] = aqp.FoldFull
		case st.at == viewTriple(cur):
			want[0] = aqp.FoldReused
		case st.sensitive && st.moved:
			want = append(want, aqp.FoldFull)
		}
		ask(what, st, cur, want...)
		st.seen, st.at, st.moved = true, viewTriple(cur), false
	}
	// mutate runs fn with both readers querying their shared pool beside it,
	// then audits everything the readers were served.
	mutate := func(what string, fn func()) {
		t.Helper()
		type served struct {
			sql string
			res *Result
		}
		got := make([][]served, 2)
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					sql := readerPool[(r+k)%len(readerPool)]
					res, err := sys.Execute(sql)
					if err != nil {
						t.Errorf("%s: reader %d: %v", what, r, err)
						return
					}
					got[r] = append(got[r], served{sql, res})
				}
			}(r)
		}
		fn()
		wg.Wait()
		for r := range got {
			for k, s := range got[r] {
				requireReplayEqual(t, sys, fmt.Sprintf("%s reader %d query %d", what, r, k), s.sql, s.res)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	appendRows := func(what string, b *storage.Table, moves bool) {
		mutate(what, func() {
			if _, err := sys.Append(b); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		})
		for _, st := range pool {
			st.moved = st.moved || moves
		}
	}

	floodAt := -1
	if flood {
		floodAt = ops / 2
	}
	for i := 0; i < ops; i++ {
		if i == floodAt {
			// More distinct statements than the memo holds: everything asked
			// before is evicted, oldest first, and the map stays at its cap.
			for k := 0; k < scanMemoCap+8; k++ {
				st := &memoStmt{sql: fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE week BETWEEN %d AND %d.5", k%40, 41+k/40)}
				query(label("flood", i), st)
			}
			if n := sys.StatsSnapshot().ScanMemoEntries; n != scanMemoCap {
				t.Fatalf("%s: %d entries after the flood, want the cap %d", label("flood", i), n, scanMemoCap)
			}
			for _, st := range pool {
				st.seen = false
			}
			continue
		}
		switch op := rng.Intn(12); op {
		case 0, 1, 2:
			query(label("repeat", i), pool[rng.Intn(4)])
		case 3:
			query(label("sensitive repeat", i), pool[4+rng.Intn(2)])
		case 4:
			query(label("grouped", i), pool[6+rng.Intn(2)])
		case 5:
			fresh++
			st := &memoStmt{sql: fmt.Sprintf("SELECT AVG(revenue) FROM sales WHERE week BETWEEN %d AND %d.25", fresh%30, 31+fresh)}
			query(label("new", i), st)
			query(label("new, again", i), st)
		case 6:
			appendRows(label("append", i), memoBatch(t, 200+rng.Intn(1000), seed*1000+int64(i), 5, 45, regions), false)
		case 7:
			appendRows(label("domain-widening append", i), memoBatch(t, 300, seed*1000+int64(i), 52+float64(i), 60+float64(i), regions), true)
		case 8:
			regions = append(regions, fmt.Sprintf("r%d", len(regions)))
			appendRows(label("dictionary-growing append", i), memoBatch(t, 400, seed*1000+int64(i), 5, 45, regions[len(regions)-1:]), true)
		case 9:
			mutate(label("rebuild", i), func() { sys.RebuildSample() })
		case 10:
			// A fit can fail on this eight-snippet synopsis of near-duplicate
			// regions (Σ not positive definite); the raw half is indifferent.
			mutate(label("train", i), func() { _ = sys.Train() })
		case 11:
			// A reader still holding the boot view, after the statement's
			// entry has moved on to the current one.
			st := pool[rng.Intn(4)]
			query(label("stale, current first", i), st)
			cur := eng.Acquire()
			// The carried prefix: every row but the tail's partial unit.
			carried := cur.SampleRows - cur.Sample.Data.Rows()%unitRows
			switch {
			case viewTriple(boot) == viewTriple(cur):
				ask(label("stale (nothing moved)", i), st, boot, aqp.FoldReused)
			case boot.SampleGen < cur.SampleGen || boot.SampleRows < carried:
				ask(label("stale, behind", i), st, boot, aqp.FoldFull)
				query(label("stale, current again", i), st) // the entry was left alone
			default:
				// At or past the carried prefix: the boot view re-folds its
				// tail from the banks.
				st.at = viewTriple(cur)
				ask(label("stale, same prefix", i), st, boot, aqp.FoldExtended)
				st.at = viewTriple(boot)
			}
		}
	}
	if st := sys.StatsSnapshot(); st.ScanMemoReused == 0 || st.ScanMemoFolded == 0 {
		t.Fatalf("seed %d: the sequence never reused (%d) or never folded (%d)", seed, st.ScanMemoReused, st.ScanMemoFolded)
	}
}
