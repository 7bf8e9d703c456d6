package aqp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/storage"
)

// Vectorized block scan. The sample (or base relation) is walked in
// storage.BlockSize blocks; per block, each snippet first consults the zone
// maps (provably-empty and provably-full blocks contribute closed-form
// moment updates without touching rows), and only indeterminate blocks run
// the columnar predicate into a reusable selection vector. Blocks are
// grouped into fixed-size work units that fan out across GOMAXPROCS workers
// with per-unit accumulators merged in unit order — data-parallelism even
// for a single snippet, which the older snippet-parallel design could not
// provide. Results are deterministic AND machine-invariant: the unit
// partition and the merge order depend only on the scanned range, never on
// the worker count, so the floating-point merge tree is identical on any
// core count.

// unitBlocks is the number of blocks per work unit — the scheduling and
// merge granule. It is a fixed constant (never derived from the worker
// count) so the moment merge tree, and hence the floating-point result, is
// identical on any machine.
const unitBlocks = 16

// minRowsPerWorker bounds the fan-out: below this many rows per worker the
// goroutine overhead exceeds the win.
const minRowsPerWorker = 8192

// partial is one worker's accumulation state for one snippet.
type partial struct {
	moments mathx.Moments
	scanned int
}

// snipMeta caches per-snippet scan info resolved once per scan call.
type snipMeta struct {
	region     *query.Region
	kind       query.AggKind
	measure    func(*storage.Table, int) float64
	measureCol int // bare-column measure index; -1 when unavailable
}

func metaOf(accs []*accumulator) []snipMeta {
	metas := make([]snipMeta, len(accs))
	for i, a := range accs {
		metas[i] = snipMeta{
			region:     a.sn.Region,
			kind:       a.sn.Kind,
			measure:    a.sn.Measure,
			measureCol: -1,
		}
		if col, ok := a.sn.MeasureColumn(); ok {
			metas[i].measureCol = col
		}
	}
	return metas
}

// unit is one work unit of a scan: blocks [b0, b1) of tbl, clipped to the
// rows [start, end) of the range the unit was cut from.
type unit struct {
	tbl                *storage.Table
	b0, b1, start, end int
}

// appendUnits appends the unit partition of rows [start, end) of tbl: unit
// u covers blocks [b0+u·unitBlocks, b0+(u+1)·unitBlocks) with
// b0 = start/BlockSize, the last one clipped to the range. The partition is
// a function of the range alone — never of the worker count — so the
// partials and their merge tree are the same on any machine. ProgressiveScan
// resumes a scan by folding later units of the same (start, end-extended)
// partition.
func appendUnits(units []unit, tbl *storage.Table, start, end int) []unit {
	if end <= start {
		return units
	}
	b0 := start / storage.BlockSize
	b1 := (end-1)/storage.BlockSize + 1
	for blo := b0; blo < b1; blo += unitBlocks {
		units = append(units, unit{tbl: tbl, b0: blo, b1: min(blo+unitBlocks, b1), start: start, end: end})
	}
	return units
}

// rows is the number of rows the unit covers.
func (u unit) rows() int {
	return min(u.b1*storage.BlockSize, u.end) - max(u.b0*storage.BlockSize, u.start)
}

// runUnits calls fn for every unit, fanning the units out across at most
// maxWorkers workers (0 = GOMAXPROCS), and at most one worker per
// minRowsPerWorker rows. Workers steal the next unit from a shared counter
// and each owns one blockScanner; fn stores its result at the unit's index,
// so what a caller merges afterwards is independent of the schedule.
func runUnits(units []unit, maxWorkers int, fn func(sc *blockScanner, i int, u unit)) {
	rows := 0
	for _, u := range units {
		rows += u.rows()
	}
	workers := maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(units), (rows+minRowsPerWorker-1)/minRowsPerWorker)
	if workers <= 1 {
		var sc blockScanner
		for i, u := range units {
			fn(&sc, i, u)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc blockScanner
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				fn(&sc, i, units[i])
			}
		}()
	}
	wg.Wait()
}

// scanUnits computes the per-snippet partials of every unit, in unit order.
func scanUnits(metas []snipMeta, units []unit, maxWorkers int) [][]partial {
	parts := make([][]partial, len(units))
	runUnits(units, maxWorkers, func(sc *blockScanner, i int, u unit) {
		parts[i] = sc.scanRange(u.tbl, metas, u.b0, u.b1, u.start, u.end)
	})
	return parts
}

func merge(accs []*accumulator, parts []partial) {
	if parts == nil {
		return
	}
	for i := range parts {
		accs[i].moments.Merge(parts[i].moments)
		accs[i].scanned += parts[i].scanned
	}
}

// blockScanner carries per-worker scratch buffers reused across work units.
type blockScanner struct {
	sel  []int32
	vals []float64
	g    *groupedScratch // lazily built by the discovery kernel
}

// scanRange processes blocks [b0, b1) clipped to rows [start, end),
// returning one partial per snippet.
func (s *blockScanner) scanRange(data *storage.Table, metas []snipMeta, b0, b1, start, end int) []partial {
	parts := make([]partial, len(metas))
	if s.sel == nil {
		s.sel = make([]int32, 0, storage.BlockSize)
	}
	sel, vals := s.sel, s.vals
	defer func() { s.sel, s.vals = sel, vals }()
	for b := b0; b < b1; b++ {
		blo, bhi := data.BlockBounds(b)
		if blo < start {
			blo = start
		}
		if bhi > end {
			bhi = end
		}
		if bhi <= blo {
			continue
		}
		rows := bhi - blo
		for i := range metas {
			m := &metas[i]
			p := &parts[i]
			p.scanned += rows
			// Zone maps summarize the whole block; their verdicts hold for
			// any sub-range of it.
			switch m.region.PruneBlock(data, b) {
			case query.BlockEmpty:
				if m.kind == query.FreqAgg {
					p.moments.AddZeros(int64(rows))
				}
				continue
			case query.BlockFull:
				if m.kind == query.FreqAgg {
					p.moments.AddWeighted(1, int64(rows))
				} else if m.measureCol >= 0 {
					p.moments.AddSlice(data.NumericCol(m.measureCol)[blo:bhi])
				} else {
					vals = vals[:0]
					for row := blo; row < bhi; row++ {
						vals = append(vals, m.measure(data, row))
					}
					p.moments.AddSlice(vals)
				}
				continue
			}
			sel = m.region.MatchBlock(data, blo, bhi, sel)
			match := len(sel)
			if m.kind == query.FreqAgg {
				p.moments.AddWeighted(1, int64(match))
				p.moments.AddZeros(int64(rows - match))
				continue
			}
			if match == 0 {
				continue
			}
			vals = vals[:0]
			if m.measureCol >= 0 {
				col := data.NumericCol(m.measureCol)
				for _, r := range sel {
					vals = append(vals, col[r])
				}
			} else {
				for _, r := range sel {
					vals = append(vals, m.measure(data, int(r)))
				}
			}
			p.moments.AddSlice(vals)
		}
	}
	return parts
}
