package aqp

import (
	"sort"
	"strings"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
)

// One-scan grouped aggregation. A G-group query decomposes into G·S snippets
// whose regions differ only in the single dictionary code each grouping
// column carries, so the per-snippet scan evaluates the shared WHERE region
// G·S times per block. The grouped kernel here evaluates the factored base
// region ONCE per block into a selection vector, reads the grouping columns'
// code slices to scatter each matched row to its group's accumulator bank
// slot, and updates S moment accumulators per touched group. Two drivers
// share the kernel:
//
//   - the static driver (scanRangeGrouped) serves an already-decomposed
//     snippet list through the same scanUnits/merge pipeline: each work
//     unit expands its banks back into the per-snippet []partial layout, so
//     unit ordering, progressive resumption and inference are untouched;
//   - the discovery driver (scanRangeDiscover, groupedFold) allocates bank
//     slots as rows reveal new code tuples, folding the GroupRows rescan
//     into the aggregation pass of one-shot and carried executions.
//
// Float-identity with the per-snippet path is by construction, not by
// accident, and the argument is worth recording. Within a block the
// reference kernel reduces to exactly two shapes: FREQ does
// AddWeighted(1, match) then AddZeros(rows−match) (its BlockEmpty/BlockFull
// branches are the match=0 and match=rows specializations — AddWeighted with
// weight 0 is a no-op and AddZeros is exact on any state), and AVG does one
// AddSlice over the group's matched rows in ascending order (BlockEmpty
// adds nothing, empty AddSlice is a no-op). The grouped kernel reproduces
// both verbatim per group: the stable counting-sort scatter keeps each
// group's rows ascending, and group discovery order cannot matter because a
// group's pre-discovery FREQ prefix is all zeros — a pure count — which one
// AddZeros(rowsBefore) at first-sight reproduces bit-for-bit ({n,0,0} merged
// with {k,0,0} is exactly {n+k,0,0}). The same consolidation argument makes
// the cross-unit backfill (absent group in a finished unit) exact, and, one
// level up, the cross-piece one (View.groupedPass).

// famSlot is the resolved scan form of one snippet of the per-group family.
type famSlot struct {
	kind       query.AggKind
	measure    func(*storage.Table, int) float64
	measureCol int // bare-column measure index; -1 when unavailable
}

// groupedScan is the immutable, worker-shared description of a grouped scan.
type groupedScan struct {
	base      *query.Region
	groupCols []int
	family    []famSlot
	avgFams   []int  // family indexes of AVG slots, in family order
	avgIdx    []int  // family index -> position in avgFams, or -1 for FREQ
	shifts    []uint // code-packing bit widths (multi-column keys)

	// Static (pre-decomposed) form.
	slots   *query.SlotTable
	nGroups int
	stride  int

	// Discovery form: slots are allocated per work unit as codes appear.
	discover bool
}

func familyOf(gs *groupedScan, kinds []query.AggKind, measures []func(*storage.Table, int) float64, cols []int) {
	gs.family = make([]famSlot, len(kinds))
	gs.avgIdx = make([]int, len(kinds))
	for j := range kinds {
		gs.family[j] = famSlot{kind: kinds[j], measure: measures[j], measureCol: cols[j]}
		gs.avgIdx[j] = -1
		if kinds[j] == query.AvgAgg {
			gs.avgIdx[j] = len(gs.avgFams)
			gs.avgFams = append(gs.avgFams, j)
		}
	}
}

// newGroupedScan compiles a factored plan into the static scan form.
func newGroupedScan(pl *query.GroupedPlan) *groupedScan {
	gs := &groupedScan{
		base:      pl.Base,
		groupCols: pl.GroupCols,
		shifts:    pl.Slots.Shifts,
		slots:     pl.Slots,
		nGroups:   len(pl.Groups),
		stride:    pl.Stride,
	}
	kinds := make([]query.AggKind, pl.Stride)
	measures := make([]func(*storage.Table, int) float64, pl.Stride)
	cols := make([]int, pl.Stride)
	for j, f := range pl.Family {
		kinds[j], measures[j], cols[j] = f.Kind, f.Measure, f.MeasureCol
	}
	familyOf(gs, kinds, measures, cols)
	return gs
}

// newDiscoverScan compiles a grouped spec into the discovery scan form.
func newDiscoverScan(spec *query.GroupedSpec) *groupedScan {
	gs := &groupedScan{
		base:      spec.Base,
		groupCols: spec.GroupCols,
		shifts:    spec.Shifts,
		discover:  true,
	}
	kinds := make([]query.AggKind, len(spec.Family))
	measures := make([]func(*storage.Table, int) float64, len(spec.Family))
	cols := make([]int, len(spec.Family))
	for j, sn := range spec.Family {
		kinds[j], measures[j], cols[j] = sn.Kind, sn.Measure, -1
		if col, ok := sn.MeasureColumn(); ok {
			cols[j] = col
		}
	}
	familyOf(gs, kinds, measures, cols)
	return gs
}

// factorAccs offers an accumulator list to the grouped factoring; nil means
// the shape is not a grouped decomposition and the per-snippet path runs.
func factorAccs(accs []*accumulator) *groupedScan {
	if len(accs) < 2 {
		return nil
	}
	snips := make([]*query.Snippet, len(accs))
	for i, a := range accs {
		snips[i] = a.sn
	}
	pl := query.FactorGroups(snips)
	if pl == nil {
		return nil
	}
	return newGroupedScan(pl)
}

// groupedScratch is one worker's accumulator-bank state, reset per work unit.
type groupedScratch struct {
	freq []mathx.Moments   // per slot: FREQ moments (shared by all FREQ fams)
	avg  [][]mathx.Moments // per AVG family: per-slot moments
	seen []bool            // slot observed in this unit
	// Per-block scatter state.
	counts   []int32 // per slot: matches in the current block
	starts   []int32 // per slot: cursor into rowsBuf during the scatter
	touched  []int32 // slots with counts>0 in the current block
	active   []int32 // slots seen so far in this unit, first-sight order
	slotsBuf []int32 // per selected row: its slot (-1 = unplanned group)
	rowsBuf  []int32 // selected rows regrouped contiguously per slot
	cols     [][]int32

	// Discovery-mode slot allocation (per unit).
	dense   []int32          // 1 grouping column: code -> slot, -1 free
	packed  map[uint64]int32 // >1 grouping column: packed key -> slot
	codesOf [][]int32        // slot -> its code tuple
	nslots  int
}

// ensureGrouped lazily builds the worker's scratch for gs against data. A
// blockScanner serves one fold, whose units may come from several tables —
// the strata and the tail of a partitioned sample. They share dictionaries,
// so the bank layout holds across them; only the code columns are re-read
// per unit, and the discovery code map grows if a later table's dictionary
// has gained codes since the first.
func (s *blockScanner) ensureGrouped(gs *groupedScan, data *storage.Table) *groupedScratch {
	sc := s.g
	if sc == nil {
		sc = &groupedScratch{}
		s.g = sc
		sc.avg = make([][]mathx.Moments, len(gs.avgFams))
		if gs.discover {
			if len(gs.groupCols) == 1 {
				size := data.DictOf(gs.groupCols[0]).Size()
				sc.dense = make([]int32, size)
				for i := range sc.dense {
					sc.dense[i] = -1
				}
			} else {
				sc.packed = make(map[uint64]int32)
			}
		} else {
			n := gs.nGroups
			sc.freq = make([]mathx.Moments, n)
			sc.seen = make([]bool, n)
			sc.counts = make([]int32, n)
			sc.starts = make([]int32, n)
			for k := range sc.avg {
				sc.avg[k] = make([]mathx.Moments, n)
			}
		}
	}
	if sc.dense != nil {
		for size := data.DictOf(gs.groupCols[0]).Size(); len(sc.dense) < size; {
			sc.dense = append(sc.dense, -1)
		}
	}
	sc.cols = sc.cols[:0]
	for _, col := range gs.groupCols {
		sc.cols = append(sc.cols, data.CodesCol(col))
	}
	return sc
}

// allocSlot claims the next bank slot for a newly discovered code tuple,
// growing (or reusing pooled) storage as needed.
func (sc *groupedScratch) allocSlot(nAvg int, tuple []int32) int32 {
	slot := sc.nslots
	sc.nslots++
	if slot == len(sc.freq) {
		sc.freq = append(sc.freq, mathx.Moments{})
		sc.seen = append(sc.seen, false)
		sc.counts = append(sc.counts, 0)
		sc.starts = append(sc.starts, 0)
		for k := 0; k < nAvg; k++ {
			sc.avg[k] = append(sc.avg[k], mathx.Moments{})
		}
		sc.codesOf = append(sc.codesOf, nil)
	}
	sc.codesOf[slot] = append(sc.codesOf[slot][:0], tuple...)
	return int32(slot)
}

// resetGrouped zeroes the state the finished unit dirtied, keeping capacity.
func (s *blockScanner) resetGrouped(gs *groupedScan) {
	sc := s.g
	for _, slot := range sc.active {
		sc.freq[slot] = mathx.Moments{}
		for k := range sc.avg {
			sc.avg[k][slot] = mathx.Moments{}
		}
		sc.seen[slot] = false
		if gs.discover {
			tuple := sc.codesOf[slot]
			if sc.dense != nil {
				sc.dense[tuple[0]] = -1
			} else {
				delete(sc.packed, query.PackKey(tuple, gs.shifts))
			}
		}
	}
	sc.active = sc.active[:0]
	sc.nslots = 0
}

// runGroupedUnit executes the shared kernel over blocks [b0, b1) clipped to
// [start, end), leaving per-slot moments in the scratch banks. Returns the
// number of rows scanned.
func (s *blockScanner) runGroupedUnit(data *storage.Table, gs *groupedScan, b0, b1, start, end int) int {
	sc := s.ensureGrouped(gs, data)
	if s.sel == nil {
		s.sel = make([]int32, 0, storage.BlockSize)
	}
	scanned := 0
	var tuple [8]int32
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
		// One zone-map consult and at most one region evaluation per block —
		// this is the whole point of the factoring.
		decision := gs.base.PruneBlock(data, b)
		if decision == query.BlockEmpty {
			for _, slot := range sc.active {
				sc.freq[slot].AddZeros(int64(rows))
			}
			scanned += rows
			continue
		}
		var sel []int32
		if decision == query.BlockFull {
			buf := s.sel
			if cap(buf) < rows {
				buf = make([]int32, 0, rows)
			}
			buf = buf[:rows]
			for i := range buf {
				buf[i] = int32(blo + i)
			}
			s.sel = buf
			sel = buf
		} else {
			s.sel = gs.base.MatchBlock(data, blo, bhi, s.sel)
			sel = s.sel
		}
		match := len(sel)
		if match == 0 {
			for _, slot := range sc.active {
				sc.freq[slot].AddZeros(int64(rows))
			}
			scanned += rows
			continue
		}
		// Scatter pass 1: slot per selected row, per-slot counts.
		if cap(sc.slotsBuf) < match {
			sc.slotsBuf = make([]int32, match)
		}
		slotsBuf := sc.slotsBuf[:match]
		touched := sc.touched
		if len(gs.groupCols) == 1 {
			codes0 := sc.cols[0]
			if gs.discover {
				for k, r := range sel {
					c := codes0[r]
					slot := sc.dense[c]
					if slot < 0 {
						tuple[0] = c
						slot = sc.allocSlot(len(gs.avgFams), tuple[:1])
						sc.dense[c] = slot
					}
					slotsBuf[k] = slot
					if sc.counts[slot] == 0 {
						touched = append(touched, slot)
					}
					sc.counts[slot]++
				}
			} else {
				dense := gs.slots.Dense
				for k, r := range sel {
					slot := dense[codes0[r]]
					slotsBuf[k] = slot
					if slot >= 0 {
						if sc.counts[slot] == 0 {
							touched = append(touched, slot)
						}
						sc.counts[slot]++
					}
				}
			}
		} else {
			for k, r := range sel {
				key := uint64(0)
				for j := range sc.cols {
					key = key<<gs.shifts[j] | uint64(uint32(sc.cols[j][r]))
				}
				var slot int32
				if gs.discover {
					var ok bool
					slot, ok = sc.packed[key]
					if !ok {
						tup := tuple[:0]
						for j := range sc.cols {
							tup = append(tup, sc.cols[j][r])
						}
						slot = sc.allocSlot(len(gs.avgFams), tup)
						sc.packed[key] = slot
					}
				} else {
					slot = gs.slots.Slot(key)
				}
				slotsBuf[k] = slot
				if slot >= 0 {
					if sc.counts[slot] == 0 {
						touched = append(touched, slot)
					}
					sc.counts[slot]++
				}
			}
		}
		// Register first-sighted groups: their pre-discovery FREQ history is
		// all zeros, consolidated into one exact AddZeros.
		for _, slot := range touched {
			if !sc.seen[slot] {
				sc.seen[slot] = true
				sc.freq[slot].AddZeros(int64(scanned))
				sc.active = append(sc.active, slot)
			}
		}
		// FREQ update for every live group, matched in this block or not —
		// the same AddWeighted/AddZeros pair the per-snippet kernel applies.
		for _, slot := range sc.active {
			c := int64(sc.counts[slot])
			sc.freq[slot].AddWeighted(1, c)
			sc.freq[slot].AddZeros(int64(rows) - c)
		}
		// Scatter pass 2 (AVG only): stable counting sort of the selection
		// vector by slot, so each group's rows stay ascending, then one
		// AddSlice per (AVG family, touched group).
		if len(gs.avgFams) > 0 {
			pos := int32(0)
			for _, slot := range touched {
				sc.starts[slot] = pos
				pos += sc.counts[slot]
			}
			if cap(sc.rowsBuf) < match {
				sc.rowsBuf = make([]int32, match)
			}
			rowsBuf := sc.rowsBuf[:match]
			for k, r := range sel {
				slot := slotsBuf[k]
				if slot < 0 {
					continue
				}
				rowsBuf[sc.starts[slot]] = r
				sc.starts[slot]++
			}
			vals := s.vals
			for fi, j := range gs.avgFams {
				fam := &gs.family[j]
				var col []float64
				if fam.measureCol >= 0 {
					col = data.NumericCol(fam.measureCol)
				}
				bank := sc.avg[fi]
				for _, slot := range touched {
					segEnd := sc.starts[slot]
					segStart := segEnd - sc.counts[slot]
					seg := rowsBuf[segStart:segEnd]
					vals = vals[:0]
					if col != nil {
						for _, r := range seg {
							vals = append(vals, col[r])
						}
					} else {
						for _, r := range seg {
							vals = append(vals, fam.measure(data, int(r)))
						}
					}
					bank[slot].AddSlice(vals)
				}
			}
			s.vals = vals
		}
		for _, slot := range touched {
			sc.counts[slot] = 0
		}
		sc.touched = touched[:0]
		scanned += rows
	}
	return scanned
}

// scanRangeGrouped runs the static grouped kernel over one work unit and
// expands the banks into the per-snippet partial layout scanUnits/merge
// expect: snippet i is group i/stride, family slot i%stride. A group unseen
// in this unit matched nothing: its FREQ partial is the pure count
// {scanned,0,0} and its AVG partial is empty — exactly what the per-snippet
// kernel would have produced.
func (s *blockScanner) scanRangeGrouped(data *storage.Table, gs *groupedScan, b0, b1, start, end int) []partial {
	scanned := s.runGroupedUnit(data, gs, b0, b1, start, end)
	sc := s.g
	parts := make([]partial, gs.nGroups*gs.stride)
	for i := range parts {
		slot := i / gs.stride
		j := i % gs.stride
		p := &parts[i]
		p.scanned = scanned
		if k := gs.avgIdx[j]; k >= 0 {
			if sc.seen[slot] {
				p.moments = sc.avg[k][slot]
			}
		} else if sc.seen[slot] {
			p.moments = sc.freq[slot]
		} else {
			p.moments.AddZeros(int64(scanned))
		}
	}
	s.resetGrouped(gs)
	return parts
}

// groupedPartial is one discovered group's moments for one work unit.
type groupedPartial struct {
	codes []int32
	freq  mathx.Moments
	avg   []mathx.Moments // one per AVG family slot, avgFams order
}

// groupedUnit is the discovery kernel's result for one work unit.
type groupedUnit struct {
	scanned int
	groups  []groupedPartial // first-sight order within the unit
}

// scanRangeDiscover runs the discovery kernel over one work unit, copying the
// touched banks out before the scratch resets.
func (s *blockScanner) scanRangeDiscover(gs *groupedScan, un unit) groupedUnit {
	scanned := s.runGroupedUnit(un.tbl, gs, un.b0, un.b1, un.start, un.end)
	sc := s.g
	u := groupedUnit{scanned: scanned, groups: make([]groupedPartial, len(sc.active))}
	for i, slot := range sc.active {
		gp := &u.groups[i]
		gp.codes = append([]int32(nil), sc.codesOf[slot]...)
		gp.freq = sc.freq[slot]
		if len(gs.avgFams) > 0 {
			gp.avg = make([]mathx.Moments, len(gs.avgFams))
			for k := range sc.avg {
				gp.avg[k] = sc.avg[k][slot]
			}
		}
	}
	s.resetGrouped(gs)
	return u
}

// discoverUnits runs the discovery kernel over every unit, fanned out like
// scanUnits; results come back in unit order.
func discoverUnits(gs *groupedScan, units []unit) []groupedUnit {
	parts := make([]groupedUnit, len(units))
	runUnits(units, 0, func(sc *blockScanner, i int, u unit) {
		parts[i] = sc.scanRangeDiscover(gs, u)
	})
	return parts
}

// groupMaster is one discovered group's cross-unit master accumulator state.
type groupMaster struct {
	codes []int32
	freq  mathx.Moments
	avg   []mathx.Moments
	stamp int // last unit (1-based) that carried this group
}

// GroupedResult is the outcome of a discovery-scan execution.
type GroupedResult struct {
	// Groups holds the discovered group values in the same deterministic
	// order GroupRows would have returned (sorted composite string keys),
	// truncated to nmax.
	Groups [][]query.GroupValue
	// Truncated reports that more than nmax groups were discovered and the
	// tail was dropped — the silent Decompose cap, surfaced.
	Truncated bool
	// Update carries the final per-snippet estimates in Decompose order
	// (group-major, family-minor), matching the snippet list the caller
	// rebuilds via Decompose(stmt, t, Groups, nmax). When no group matched,
	// it matches the single nil-group (ungrouped) decomposition Decompose
	// falls back to.
	Update Increment
}

// groupedFold is the cross-unit master state of a discovery scan: the
// per-group master accumulators, the code-key lookup, and the running
// unit/row counters the first-sight and absent-group backfills depend on.
// One folds each piece's units as that piece's bank (carried across appends
// by a grouped CarriedFold); a fresh one then merges the piece folds as
// pseudo-units (View.groupedPass).
type groupedFold struct {
	masters []*groupMaster
	lookup  map[uint64]int
	scanned int // rows folded so far (scannedBefore in merge order)
	unitNo  int // units folded so far (1-based stamps)
}

func newGroupedFold() *groupedFold {
	return &groupedFold{lookup: make(map[uint64]int)}
}

// merge folds discovery-kernel unit results into the masters in the order
// given: first-sight AddZeros backfill for newly discovered groups,
// absent-group AddZeros backfill per finished unit — the deterministic
// merge tree shared with the per-snippet scan. Nothing here depends on
// which scan range a unit was cut from, so the units of many ranges may be
// computed together and merged in one call.
func (f *groupedFold) merge(gs *groupedScan, parts []groupedUnit) {
	for _, u := range parts {
		f.unitNo++
		for gi := range u.groups {
			gp := &u.groups[gi]
			key := query.PackKey(gp.codes, gs.shifts)
			idx, ok := f.lookup[key]
			if !ok {
				m := &groupMaster{codes: gp.codes}
				// Pre-discovery prefix: a pure zero count, exact.
				m.freq.AddZeros(int64(f.scanned))
				if len(gs.avgFams) > 0 {
					m.avg = make([]mathx.Moments, len(gs.avgFams))
				}
				idx = len(f.masters)
				f.masters = append(f.masters, m)
				f.lookup[key] = idx
			}
			m := f.masters[idx]
			m.freq.Merge(gp.freq)
			for k := range gp.avg {
				m.avg[k].Merge(gp.avg[k])
			}
			m.stamp = f.unitNo
		}
		// Backfill groups absent from this unit: the per-snippet partial
		// they would have merged is the pure count {u.scanned,0,0}.
		for _, m := range f.masters {
			if m.stamp != f.unitNo {
				m.freq.AddZeros(int64(u.scanned))
			}
		}
		f.scanned += u.scanned
	}
}

// clone deep-copies the fold so a partial tail unit can fold into a
// throwaway copy while the carried state stays pinned at the last complete
// unit. Master codes are shared (immutable after discovery); moments and
// stamps are value-copied.
func (f *groupedFold) clone() *groupedFold {
	out := &groupedFold{
		scanned: f.scanned,
		unitNo:  f.unitNo,
		lookup:  make(map[uint64]int, len(f.lookup)),
	}
	for k, v := range f.lookup {
		out.lookup[k] = v
	}
	out.masters = make([]*groupMaster, len(f.masters))
	for i, m := range f.masters {
		c := &groupMaster{codes: m.codes, freq: m.freq, stamp: m.stamp}
		if m.avg != nil {
			c.avg = append([]mathx.Moments(nil), m.avg...)
		}
		out.masters[i] = c
	}
	return out
}

// pseudoUnit presents the fold as one unit result: every master's codes
// and moments over the fold's rows.
func (f *groupedFold) pseudoUnit() groupedUnit {
	u := groupedUnit{scanned: f.scanned, groups: make([]groupedPartial, len(f.masters))}
	for i, m := range f.masters {
		u.groups[i] = groupedPartial{codes: m.codes, freq: m.freq, avg: m.avg}
	}
	return u
}

// result orders, truncates and estimates the folded masters into a
// GroupedResult. It only reads the fold, which can keep extending after.
func (f *groupedFold) result(v *View, gs *groupedScan, spec *query.GroupedSpec, nmax int) *GroupedResult {
	data := v.Sample.Data
	masters := f.masters
	total := f.scanned

	// Order groups exactly as GroupRows would: by the "|"-joined composite
	// string key. Dictionaries are shared between base and sample, so the
	// decoded strings match the row-sourced ones.
	order := make([]int, len(masters))
	keys := make([]string, len(masters))
	for i, m := range masters {
		var sb strings.Builder
		for j, col := range spec.GroupCols {
			sb.WriteByte('|')
			sb.WriteString(data.DictOf(col).Value(m.codes[j]))
		}
		keys[i] = sb.String()
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	truncated := len(order) > nmax
	if truncated {
		order = order[:nmax]
	}

	res := &GroupedResult{Truncated: truncated}
	res.Groups = make([][]query.GroupValue, len(order))
	for i, mi := range order {
		m := masters[mi]
		gvs := make([]query.GroupValue, len(spec.GroupCols))
		for j, col := range spec.GroupCols {
			gvs[j] = query.GroupValue{Col: col, Str: data.DictOf(col).Value(m.codes[j])}
		}
		res.Groups[i] = gvs
	}

	stride := len(spec.Family)
	nOut := len(order)
	if nOut == 0 {
		// Zero matching groups: Decompose falls back to one ungrouped
		// decomposition over the base region. Synthesize its accumulators —
		// FREQ saw total zeros, AVG saw nothing.
		nOut = 1
	}
	cells := make([]accumulator, nOut*stride)
	accs := make([]*accumulator, len(cells))
	for g := 0; g < nOut; g++ {
		var m *groupMaster
		if len(order) > 0 {
			m = masters[order[g]]
		}
		for j := 0; j < stride; j++ {
			acc := &cells[g*stride+j]
			*acc = accumulator{sn: spec.Family[j], scanned: total, baseRows: v.Sample.BaseRows}
			if m != nil {
				if k := gs.avgIdx[j]; k >= 0 {
					acc.moments = m.avg[k]
				} else {
					acc.moments = m.freq
				}
			} else if gs.avgIdx[j] < 0 {
				acc.moments.AddZeros(int64(total))
			}
			accs[g*stride+j] = acc
		}
	}
	res.Update = v.increment(accs, total)
	return res
}

// GroupedRunToCompletion executes a grouped query in one pass over the
// sample: the discovery kernel aggregates and discovers groups block by
// block, on the same merge tree as RunToCompletion, so the estimates are
// bit-identical to decomposing after a GroupRows pass and folding the
// snippets.
func (v *View) GroupedRunToCompletion(spec *query.GroupedSpec, nmax int) *GroupedResult {
	if v.stages != nil {
		defer v.ObserveScan(obs.ModeOneShot, true, time.Now())
	}
	if nmax <= 0 {
		nmax = query.DefaultNmax
	}
	res, _ := v.groupedPass(newBanks(v, newGroupedFold), spec, nmax)
	return res
}

// groupedPass takes discovery banks to the whole sample — one discovery
// fold per piece — and merges the piece folds, in piece order, into a fresh
// fold, each piece entering as one pseudo-unit of its codes, moments and
// rows. That merge's first-sight and absent-group backfills are the pure
// counts the per-snippet banks of the other pieces hold, so the result is
// the per-snippet piece-order merge bit for bit. It returns the rows read.
func (v *View) groupedPass(banks []*bank[*groupedFold], spec *query.GroupedSpec, nmax int) (*GroupedResult, int) {
	// Compiled against this spec each pass: the result's estimates must
	// reference the caller's plan.
	gs := newDiscoverScan(spec)
	targets := v.pieceTargets(v.SampleRows)
	cur, scanned := foldBanks(banks, v.Sample.Pieces(), targets, bankOps[*groupedFold, groupedUnit]{
		scan:  func(units []unit) []groupedUnit { return discoverUnits(gs, units) },
		merge: func(f *groupedFold, parts []groupedUnit) { f.merge(gs, parts) },
		clone: (*groupedFold).clone,
	})
	emit := newGroupedFold()
	for b, f := range cur {
		if targets[b] > 0 {
			emit.merge(gs, []groupedUnit{f.pseudoUnit()})
		}
	}
	return emit.result(v, gs, spec, nmax), scanned
}
