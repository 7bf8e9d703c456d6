package storage

import (
	"fmt"
	"sync"
	"testing"
)

func snapSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]ColumnDef{
		{Name: "x", Kind: Numeric, Role: Dimension},
		{Name: "c", Kind: Categorical, Role: Dimension},
		{Name: "m", Kind: Numeric},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendSnapRow(t *testing.T, tb *Table, i int) {
	t.Helper()
	if err := tb.AppendRow([]Value{
		Num(float64(i % 100)),
		Str(fmt.Sprintf("c%d", i%7)),
		Num(float64(i)),
	}); err != nil {
		t.Fatal(err)
	}
}

// A snapshot must stay byte-identical while the live table keeps growing.
func TestSnapshotIsolatedFromAppends(t *testing.T) {
	tb := NewTable("t", snapSchema(t))
	for i := 0; i < 6000; i++ {
		appendSnapRow(t, tb, i)
	}
	snap := tb.Snapshot()
	if snap.Rows() != 6000 || !snap.frozen {
		t.Fatalf("snapshot rows=%d frozen=%v", snap.Rows(), snap.frozen)
	}
	if err := snap.AppendRow([]Value{Num(1), Str("z"), Num(2)}); err != ErrFrozen {
		t.Fatalf("mutating snapshot: got %v, want ErrFrozen", err)
	}
	lo, hi := snap.Domain(0)
	for i := 6000; i < 20000; i++ {
		appendSnapRow(t, tb, i*31) // new values widen domains and zones
	}
	if snap.Rows() != 6000 {
		t.Fatalf("snapshot grew to %d rows", snap.Rows())
	}
	if l2, h2 := snap.Domain(0); l2 != lo || h2 != hi {
		t.Fatalf("snapshot domain moved: [%g,%g] -> [%g,%g]", lo, hi, l2, h2)
	}
	for i := 0; i < 6000; i++ {
		if got := snap.NumAt(i, 2); got != float64(i) {
			t.Fatalf("row %d: m=%g", i, got)
		}
	}
	if tb.Rows() != 20000 {
		t.Fatalf("live rows=%d", tb.Rows())
	}
}

// SnapshotAt on the grown table must replay a historical snapshot exactly.
func TestSnapshotAtReplaysHistory(t *testing.T) {
	tb := NewTable("t", snapSchema(t))
	for i := 0; i < 5000; i++ {
		appendSnapRow(t, tb, i)
	}
	old := tb.Snapshot()
	for i := 5000; i < 9000; i++ {
		appendSnapRow(t, tb, i)
	}
	replay := tb.SnapshotAt(5000)
	if replay.Rows() != old.Rows() {
		t.Fatalf("replay rows=%d, old=%d", replay.Rows(), old.Rows())
	}
	for i := 0; i < old.Rows(); i++ {
		if old.NumAt(i, 0) != replay.NumAt(i, 0) || old.StrAt(i, 1) != replay.StrAt(i, 1) || old.NumAt(i, 2) != replay.NumAt(i, 2) {
			t.Fatalf("row %d differs between snapshot and replay", i)
		}
	}
}

// Concurrent appenders and snapshot scanners must be race-free (run with
// -race) and every snapshot must see a consistent prefix.
func TestSnapshotConcurrentAppendScan(t *testing.T) {
	tb := NewTable("t", snapSchema(t))
	for i := 0; i < BlockSize+17; i++ {
		appendSnapRow(t, tb, i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			appendSnapRow(t, tb, 100000+i)
		}
	}()
	var errOnce sync.Once
	var firstErr error
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				snap := tb.Snapshot()
				rows := snap.Rows()
				// The measure column of the first BlockSize+17 rows is the
				// row index; summing validates the prefix is intact.
				sum := 0.0
				col := snap.NumericCol(2)
				if len(col) != rows {
					errOnce.Do(func() { firstErr = fmt.Errorf("col len %d != rows %d", len(col), rows) })
					return
				}
				n := BlockSize + 17
				for i := 0; i < n; i++ {
					sum += col[i]
				}
				want := float64(n*(n-1)) / 2
				if sum != want {
					errOnce.Do(func() { firstErr = fmt.Errorf("prefix sum %g, want %g", sum, want) })
					return
				}
				_ = snap.DictOf(1).Size()
			}
		}()
	}
	close(stop)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

func TestAppendByName(t *testing.T) {
	tb := NewTable("t", snapSchema(t))
	appendSnapRow(t, tb, 1)

	// Batch with the same column names in a different order, own schema.
	bs, err := NewSchema([]ColumnDef{
		{Name: "m", Kind: Numeric},
		{Name: "x", Kind: Numeric, Role: Dimension},
		{Name: "c", Kind: Categorical, Role: Dimension},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := NewTable("batch", bs)
	if err := batch.AppendRow([]Value{Num(42), Num(7), Str("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendByName(batch); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows=%d", tb.Rows())
	}
	if tb.NumAt(1, 0) != 7 || tb.StrAt(1, 1) != "new" || tb.NumAt(1, 2) != 42 {
		t.Fatalf("appended row mismatch: %g %s %g", tb.NumAt(1, 0), tb.StrAt(1, 1), tb.NumAt(1, 2))
	}

	// Kind mismatch is rejected.
	ms, err := NewSchema([]ColumnDef{
		{Name: "x", Kind: Categorical, Role: Dimension},
		{Name: "c", Kind: Categorical},
		{Name: "m", Kind: Numeric},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := NewTable("bad", ms)
	if err := tb.AppendByName(bad); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}
