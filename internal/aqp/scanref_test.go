package aqp

import (
	"runtime"
	"sync"

	"repro/internal/query"
	"repro/internal/storage"
)

// Reference scans. The engine runs the vectorized block pipeline (scan.go)
// and, for grouped statements, the discovery kernel (scan_grouped.go). The
// references below are what they are checked and benchmarked against: the
// row-at-a-time loop (per-row predicate dispatch, parallel across snippets
// only) and the per-snippet fold written without banks.

// parallelThreshold is the snippet count past which scanRows fans out
// across goroutines. Snippets are independent (each owns its accumulator),
// so partitioning them is race-free; below the threshold the goroutine
// overhead exceeds the win.
const parallelThreshold = 8

// observe folds one row into the accumulator: the row reference's unit of
// work.
func (a *accumulator) observe(t *storage.Table, row int) {
	a.scanned++
	match := a.sn.Region.Matches(t, row)
	switch a.sn.Kind {
	case query.FreqAgg:
		if match {
			a.moments.Add(1)
		} else {
			a.moments.Add(0)
		}
	case query.AvgAgg:
		if match {
			a.moments.Add(a.sn.Measure(t, row))
		}
	}
}

// scanRows feeds rows [start, end) of data into every accumulator one row
// at a time.
func scanRows(data *storage.Table, accs []*accumulator, start, end int) {
	if len(accs) < parallelThreshold {
		for row := start; row < end; row++ {
			for _, a := range accs {
				a.observe(data, row)
			}
		}
		return
	}
	workers := min(runtime.GOMAXPROCS(0), len(accs))
	var wg sync.WaitGroup
	chunk := (len(accs) + workers - 1) / workers
	for lo := 0; lo < len(accs); lo += chunk {
		wg.Add(1)
		go func(part []*accumulator) {
			defer wg.Done()
			for row := start; row < end; row++ {
				for _, a := range part {
					a.observe(data, row)
				}
			}
		}(accs[lo:min(lo+chunk, len(accs))])
	}
	wg.Wait()
}

// rowRunToCompletion is v.RunToCompletion(snips) under the row reference:
// every piece of the sample in piece order, each folded row by row.
func rowRunToCompletion(v *View, snips []*query.Snippet) Increment {
	accs := newAccs(v, snips)
	for _, tbl := range v.Sample.Pieces() {
		scanRows(tbl, accs, 0, tbl.Rows())
	}
	return v.increment(accs, v.SampleRows)
}

// perSnippetRunToCompletion is v.RunToCompletion(snips) written without
// banks: each piece folded on its own, every snippet evaluating its own
// region per block, units merged in order, then the pieces merged in piece
// order — the merge tree every scan must reproduce.
func perSnippetRunToCompletion(v *View, snips []*query.Snippet) Increment {
	accs := newAccs(v, snips)
	for _, tbl := range v.Sample.Pieces() {
		if tbl.Rows() == 0 {
			continue
		}
		bank := newAccs(v, snips)
		for _, p := range scanUnits(metaOf(bank), appendUnits(nil, tbl, 0, tbl.Rows()), 0) {
			merge(bank, p)
		}
		mergeAccs(accs, bank)
	}
	return v.increment(accs, v.SampleRows)
}
