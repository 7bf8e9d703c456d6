package aqp

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// TestVectorizedMatchesRowAtATime runs the same snippet sets through the
// engine's scan and the row-at-a-time reference and requires the estimates
// to agree to floating-point noise (the accumulation orders differ, so
// bit-equality is not expected). The grouped snippet lists run the
// accumulator-bank kernel, on clustered and shuffled layouts.
func TestVectorizedMatchesRowAtATime(t *testing.T) {
	tb := buildTable(t, 3*storage.BlockSize+123)
	sample, err := BuildSample(tb, 0.8, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	var snips []*query.Snippet
	for i := 0; i < 12; i++ {
		sql := "SELECT AVG(val) FROM t WHERE week >= " + strconv.Itoa(i*7) + " AND week < " + strconv.Itoa(i*7+15)
		snips = append(snips, snippetFor(t, tb, sql))
	}
	snips = append(snips,
		snippetFor(t, tb, "SELECT COUNT(*) FROM t WHERE region = 'a'"),
		snippetFor(t, tb, "SELECT COUNT(*) FROM t WHERE week < 25"),
		snippetFor(t, tb, "SELECT AVG(val) FROM t"),
		snippetFor(t, tb, "SELECT AVG(val * val) FROM t WHERE week >= 40"), // non-column measure
	)
	requireMatchesRowRef(t, "flat", NewEngine(tb, sample, CachedCost).Acquire(), snips)

	for _, clustered := range []bool{true, false} {
		tb := buildGroupedTable(t, 3*storage.BlockSize+777, 12, clustered)
		sample, err := BuildSample(tb, 0.9, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		v := NewEngine(tb, sample, CachedCost).Acquire()
		for _, sql := range groupedEquivalenceSQL {
			snips := groupedSnips(t, v, tb, sql)
			if factorAccs(newAccs(v, snips)) == nil {
				t.Fatalf("%s: not factored into the grouped kernel", sql)
			}
			requireMatchesRowRef(t, fmt.Sprintf("clustered=%v %s", clustered, sql), v, snips)
		}
	}
}

// requireMatchesRowRef compares v.RunToCompletion(snips) with the row
// reference to floating-point noise.
func requireMatchesRowRef(t *testing.T, label string, v *View, snips []*query.Snippet) {
	t.Helper()
	uv := v.RunToCompletion(snips)
	ur := rowRunToCompletion(v, snips)
	if uv.RowsScanned != ur.RowsScanned {
		t.Fatalf("%s: rows scanned: vectorized %d, row %d", label, uv.RowsScanned, ur.RowsScanned)
	}
	for i := range snips {
		if uv.Valid[i] != ur.Valid[i] {
			t.Fatalf("%s snippet %d: validity %v vs %v", label, i, uv.Valid[i], ur.Valid[i])
		}
		if !uv.Valid[i] {
			continue
		}
		ev, er := uv.Estimates[i], ur.Estimates[i]
		if relDiff(ev.Value, er.Value) > 1e-9 {
			t.Fatalf("%s snippet %d value: vectorized %v row %v", label, i, ev.Value, er.Value)
		}
		if relDiff(ev.StdErr, er.StdErr) > 1e-6 {
			t.Fatalf("%s snippet %d stderr: vectorized %v row %v", label, i, ev.StdErr, er.StdErr)
		}
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestVectorizedDeterministic: repeated vectorized runs must be bit-identical
// (fixed block partition, fixed merge order) regardless of scheduling.
func TestVectorizedDeterministic(t *testing.T) {
	tb := buildTable(t, 2*storage.BlockSize+999)
	sample, err := BuildSample(tb, 1.0, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	sn := snippetFor(t, tb, "SELECT AVG(val) FROM t WHERE week < 37")
	first := e.RunToCompletion([]*query.Snippet{sn})
	for rep := 0; rep < 5; rep++ {
		again := e.RunToCompletion([]*query.Snippet{sn})
		if first.Estimates[0] != again.Estimates[0] {
			t.Fatalf("run %d: %+v != %+v", rep, again.Estimates[0], first.Estimates[0])
		}
	}
}

// TestExactVectorized: the block-pipeline Exact must agree with brute force.
func TestExactVectorized(t *testing.T) {
	tb := buildTable(t, storage.BlockSize+500)
	sample, err := BuildSample(tb, 1.0, 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	for _, sql := range []string{
		"SELECT AVG(val) FROM t WHERE week >= 20 AND week < 40",
		"SELECT COUNT(*) FROM t WHERE week >= 20 AND week < 40",
		"SELECT COUNT(*) FROM t WHERE region = 'b'",
		"SELECT AVG(val * val) FROM t WHERE week < 10",
		"SELECT COUNT(*) FROM t WHERE week > 1000", // empty region
	} {
		sn := snippetFor(t, tb, sql)
		got := e.Exact(sn)
		var want float64
		switch sn.Kind {
		case query.FreqAgg:
			match := 0
			for r := 0; r < tb.Rows(); r++ {
				if sn.Region.Matches(tb, r) {
					match++
				}
			}
			want = float64(match) / float64(tb.Rows())
			// The indicator mean is merged per block unit, so agreement is
			// to floating-point noise, not bit-exact.
			if relDiff(got, want) > 1e-12 {
				t.Fatalf("%s: exact freq %v != brute force %v", sql, got, want)
			}
		default:
			sum, n := 0.0, 0
			for r := 0; r < tb.Rows(); r++ {
				if sn.Region.Matches(tb, r) {
					sum += sn.Measure(tb, r)
					n++
				}
			}
			if n == 0 {
				want = 0
			} else {
				want = sum / float64(n)
			}
			if relDiff(got, want) > 1e-9 {
				t.Fatalf("%s: exact avg %v != brute force %v", sql, got, want)
			}
		}
	}
}
