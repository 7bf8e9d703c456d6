package aqp

import (
	"runtime"
	"sync"

	"repro/internal/query"
	"repro/internal/storage"
)

// Reference scans. The engine runs one scan, the vectorized block pipeline
// (scan.go), which factors grouped snippet lists into the accumulator-bank
// kernel. The references below are what it is checked and benchmarked
// against: the row-at-a-time loop (per-row predicate dispatch, parallel
// across snippets only) and the per-snippet fold (the block pipeline with
// grouped factoring turned off).

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
// the same batch spans in the same order, each folded row by row.
func rowRunToCompletion(v *View, snips []*query.Snippet) Increment {
	if v.Sample.Batches() == 0 {
		return Increment{}
	}
	accs := newAccs(v, snips)
	for _, sp := range v.batchSpans(nil, 0, v.SampleRows, v.Sample.BatchSize) {
		scanRows(sp.tbl, accs, sp.lo, sp.hi)
	}
	return v.increment(accs, v.SampleRows)
}

// perSnippetRunToCompletion is v.RunToCompletion(snips) with grouped
// factoring off: the same units merged in the same order, every snippet
// evaluating its own region per block (gs = nil).
func perSnippetRunToCompletion(v *View, snips []*query.Snippet) Increment {
	if v.Sample.Batches() == 0 {
		return Increment{}
	}
	accs := newAccs(v, snips)
	spans := v.batchSpans(nil, 0, v.SampleRows, v.Sample.BatchSize)
	units, _ := spanUnits(spans, len(spans))
	for _, p := range scanUnits(metaOf(accs), nil, units, 0) {
		merge(accs, p)
	}
	return v.increment(accs, v.SampleRows)
}
