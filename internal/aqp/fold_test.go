package aqp

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/query"
)

// serialFold is the fold oracle: the batch-by-batch loop RunToCompletion
// ran before the work units of all batches were scanned together — one
// scan call per batch span, each merging its own units before the next
// starts.
func serialFold(v *View, snips []*query.Snippet) BatchUpdate {
	accs := newAccs(v, snips)
	for b := 0; b < v.Sample.Batches(); b++ {
		start, end := v.Sample.BatchBounds(b)
		for _, sp := range v.sampleSpans(start, end) {
			scanVectorized(sp.tbl, accs, sp.lo, sp.hi)
		}
	}
	return v.finalUpdate(accs)
}

// serialGroupedFold is serialFold for the discovery scan: each batch span's
// units are scanned and merged before the next span's.
func serialGroupedFold(v *View, spec *query.GroupedSpec) *GroupedResult {
	gs := newDiscoverScan(spec)
	f := newGroupedFold()
	for b := 0; b < v.Sample.Batches(); b++ {
		start, end := v.Sample.BatchBounds(b)
		for _, sp := range v.sampleSpans(start, end) {
			f.merge(gs, discoverUnits(gs, appendUnits(nil, sp.tbl, sp.lo, sp.hi)))
		}
	}
	return f.result(v, gs, spec, query.DefaultNmax)
}

// requireSameBits compares two updates' estimates by Float64bits, so even
// a NaN or a signed zero must match.
func requireSameBits(t *testing.T, label string, got, want BatchUpdate) {
	t.Helper()
	if got.RowsScanned != want.RowsScanned || got.Batch != want.Batch || len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("%s: shape (rows %d, batch %d, %d cells) vs serial (rows %d, batch %d, %d cells)", label,
			got.RowsScanned, got.Batch, len(got.Estimates), want.RowsScanned, want.Batch, len(want.Estimates))
	}
	for i, w := range want.Estimates {
		g := got.Estimates[i]
		if got.Valid[i] != want.Valid[i] ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.StdErr) != math.Float64bits(w.StdErr) ||
			math.Float64bits(g.PopErr) != math.Float64bits(w.PopErr) {
			t.Fatalf("%s: cell %d is %v/%+v, serial fold %v/%+v", label, i, got.Valid[i], g, want.Valid[i], w)
		}
	}
}

// TestCrossBatchFoldMatchesSerial: scanning the units of every batch at
// once and merging them in (batch, span, unit) order must reproduce the
// serial batch-by-batch fold bit for bit — for one-shot folds and for
// carried folds extended by 0, 1 and 3 complete batches (with a partial
// tail throughout), on a flat and a 4-partition stratified layout, for a
// flat snippet list, a statically grouped one and a discovery-grouped spec,
// at GOMAXPROCS 1, 2 and 4.
func TestCrossBatchFoldMatchesSerial(t *testing.T) {
	const sql = "SELECT region, AVG(val), COUNT(*) FROM t WHERE week < 70 GROUP BY region"
	for _, parts := range []int{0, 4} {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("parts=%d/procs=%d", parts, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				tb := buildTable(t, 30001)
				sample, err := BuildSample(tb, 1.0, 0, 21)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(tb, sample, CachedCost)
				if parts > 0 {
					if err := e.SetSampleLayout(partitionedLayout(tb, parts)); err != nil {
						t.Fatal(err)
					}
				}
				v := e.Acquire()
				batch := v.Sample.BatchSize
				if v.Sample.Batches() < 10 || v.SampleRows%batch == 0 {
					t.Fatalf("fixture: %d rows in %d batches of %d, want many batches and a partial tail", v.SampleRows, v.Sample.Batches(), batch)
				}
				plans := map[string][]*query.Snippet{
					"snippets":       progressiveSnips(t, tb),
					"static-grouped": groupedSnips(t, v, tb, sql),
				}
				if factorAccs(freshAccsOf(plans["static-grouped"])) == nil {
					t.Fatal("fixture: the grouped snippet list does not factor")
				}
				spec := groupedSpecFor(t, tb, sql)
				carried := map[string]*CarriedFold{}
				for name := range plans {
					carried[name] = NewCarriedFold(false)
				}
				gcarried := NewCarriedFold(false)
				for i, add := range []int{0, 1, 3} {
					if add > 0 {
						if _, err := e.Append(appendBatch(t, add*batch, int64(60+i)), int64(i)); err != nil {
							t.Fatal(err)
						}
					}
					v := e.Acquire()
					outcome := FoldExtended
					if add == 0 {
						outcome = FoldFull
					}
					for name, snips := range plans {
						label := fmt.Sprintf("+%d batches, %s", add, name)
						want := serialFold(v, snips)
						requireSameBits(t, label+" one-shot", v.RunToCompletion(snips), want)
						fr := carried[name].Run(v, snips, nil, 0)
						requireOutcome(t, label+" carried", fr, v, outcome, (add+1)*batch)
						requireSameBits(t, label+" carried", fr.Update, want)
					}
					label := fmt.Sprintf("+%d batches, discovery-grouped", add)
					want := serialGroupedFold(v, spec)
					gr := gcarried.Run(v, nil, spec, 0)
					requireOutcome(t, label+" carried", gr, v, outcome, (add+1)*batch)
					for _, got := range []*GroupedResult{v.GroupedRunToCompletion(spec, 0), gr.Grouped} {
						if fmt.Sprint(got.Groups) != fmt.Sprint(want.Groups) || got.Truncated != want.Truncated {
							t.Fatalf("%s: groups %v, serial fold %v", label, got.Groups, want.Groups)
						}
						requireSameBits(t, label, got.Update, want.Update)
					}
				}
			})
		}
	}
}

func freshAccsOf(snips []*query.Snippet) []*accumulator {
	accs := make([]*accumulator, len(snips))
	for i, sn := range snips {
		accs[i] = &accumulator{sn: sn}
	}
	return accs
}
