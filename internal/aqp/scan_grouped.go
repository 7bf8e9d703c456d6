package aqp

import (
	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/storage"
)

// One-scan grouped aggregation. A G-group query decomposes into G·S snippets
// whose regions differ only in the single dictionary code each grouping
// column carries, so the per-snippet scan would evaluate the shared WHERE
// region G·S times per block. The discovery kernel here evaluates the base
// region ONCE per block into a selection vector, reads the grouping
// columns' code slices to scatter each matched row to its group's
// accumulator bank slot — allocating a slot the first time a code tuple
// appears — and updates S moment accumulators per touched group. It is the
// one grouped kernel: one-shot and carried folds (groupedPass) and
// progressive prefixes (ProgressiveScan's grouped form) all fold it, and
// expand the folded groups onto an answer set in Decompose order (expand).
//
// Float-identity with the per-snippet path is by construction, not by
// accident, and the argument is worth recording. Within a block the
// reference kernel reduces to exactly two shapes: FREQ does
// AddWeighted(1, match) then AddZeros(rows−match) (its BlockEmpty/BlockFull
// branches are the match=0 and match=rows specializations — AddWeighted with
// weight 0 is a no-op and AddZeros is exact on any state), and AVG does one
// AddSlice over the group's matched rows in ascending order (BlockEmpty
// adds nothing, empty AddSlice is a no-op). The discovery kernel reproduces
// both verbatim per group: the stable counting-sort scatter keeps each
// group's rows ascending, and group discovery order cannot matter because a
// group's pre-discovery FREQ prefix is all zeros — a pure count — which one
// AddZeros(rowsBefore) at first-sight reproduces bit-for-bit ({n,0,0} merged
// with {k,0,0} is exactly {n+k,0,0}). The same consolidation argument makes
// the cross-unit backfill (absent group in a finished unit) exact, one
// level up the cross-piece one (foldGrouped), and at the top the expansion
// of a prefix onto an answer set, where a group the prefix has not met yet
// is the pure count {rows,0,0} and an empty AVG (expand).

// famSlot is the resolved scan form of one snippet of the per-group family.
type famSlot struct {
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
}

// newDiscoverScan compiles a grouped spec into the discovery scan form.
func newDiscoverScan(spec *query.GroupedSpec) *groupedScan {
	gs := &groupedScan{
		base:      spec.Base,
		groupCols: spec.GroupCols,
		shifts:    spec.Shifts,
		family:    make([]famSlot, len(spec.Family)),
		avgIdx:    make([]int, len(spec.Family)),
	}
	for j, sn := range spec.Family {
		gs.family[j] = famSlot{measure: sn.Measure, measureCol: -1}
		if col, ok := sn.MeasureColumn(); ok {
			gs.family[j].measureCol = col
		}
		gs.avgIdx[j] = -1
		if sn.Kind == query.AvgAgg {
			gs.avgIdx[j] = len(gs.avgFams)
			gs.avgFams = append(gs.avgFams, j)
		}
	}
	return gs
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
	slotsBuf []int32 // per selected row: its slot
	rowsBuf  []int32 // selected rows regrouped contiguously per slot
	cols     [][]int32

	// Slot allocation (per unit).
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
		if len(gs.groupCols) > 1 {
			sc.packed = make(map[uint64]int32)
		}
	}
	if len(gs.groupCols) == 1 {
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
		if tuple := sc.codesOf[slot]; sc.packed == nil {
			sc.dense[tuple[0]] = -1
		} else {
			delete(sc.packed, query.PackKey(tuple, gs.shifts))
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
			for k, r := range sel {
				key := uint64(0)
				for j := range sc.cols {
					key = key<<gs.shifts[j] | uint64(uint32(sc.cols[j][r]))
				}
				slot, ok := sc.packed[key]
				if !ok {
					tup := tuple[:0]
					for j := range sc.cols {
						tup = append(tup, sc.cols[j][r])
					}
					slot = sc.allocSlot(len(gs.avgFams), tup)
					sc.packed[key] = slot
				}
				slotsBuf[k] = slot
				if sc.counts[slot] == 0 {
					touched = append(touched, slot)
				}
				sc.counts[slot]++
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
		// vector by slot, so each group's rows stay ascending — a block one
		// group fills is its own segment already — then one AddSlice per
		// (AVG family, touched group).
		if len(gs.avgFams) > 0 {
			rowsBuf := sel
			if len(touched) == 1 {
				sc.starts[touched[0]] = int32(match)
			} else {
				pos := int32(0)
				for _, slot := range touched {
					sc.starts[slot] = pos
					pos += sc.counts[slot]
				}
				if cap(sc.rowsBuf) < match {
					sc.rowsBuf = make([]int32, match)
				}
				rowsBuf = sc.rowsBuf[:match]
				for k, r := range sel {
					slot := slotsBuf[k]
					rowsBuf[sc.starts[slot]] = r
					sc.starts[slot]++
				}
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
// the flat scan across at most maxWorkers workers; results come back in
// unit order.
func discoverUnits(gs *groupedScan, units []unit, maxWorkers int) []groupedUnit {
	parts := make([]groupedUnit, len(units))
	runUnits(units, maxWorkers, func(sc *blockScanner, i int, u unit) {
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
	// Groups holds the discovered group values in the order groupOrder
	// gives, truncated to nmax: the answer set.
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

	// codes holds each answer-set group's code tuple, in Groups order: what
	// a progressive scan of the same view expands its prefixes onto.
	codes [][]int32
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

// answerSet orders the folded groups as groupOrder does and
// truncates them to nmax: the answer set, without estimates. Dictionaries
// are shared between base and sample, so the decoded strings are the ones
// Decompose looks the codes up by.
func (f *groupedFold) answerSet(v *View, spec *query.GroupedSpec, nmax int) *GroupedResult {
	t := v.Sample.Data
	groups := make([][]query.GroupValue, len(f.masters))
	for i, m := range f.masters {
		groups[i] = make([]query.GroupValue, len(spec.GroupCols))
		for j, col := range spec.GroupCols {
			groups[i][j] = query.GroupValue{Col: col, Str: t.DictOf(col).Value(m.codes[j])}
		}
	}
	order := groupOrder(t.Schema(), groups)
	res := &GroupedResult{Truncated: len(order) > nmax}
	if res.Truncated {
		order = order[:nmax]
	}
	res.Groups = make([][]query.GroupValue, len(order))
	res.codes = make([][]int32, len(order))
	for i, mi := range order {
		res.Groups[i], res.codes[i] = groups[mi], f.masters[mi].codes
	}
	return res
}

// expand estimates the fold — the sample prefix [0, rows) — onto an answer
// set's groups (codes), in Decompose order. A group the fold has not met
// matched none of its rows: its FREQ cell is the pure count {rows,0,0} and
// its AVG cells are empty, exactly what the per-snippet kernel holds for
// it. An empty answer set is Decompose's single ungrouped decomposition over
// the base region, which no row matched either.
func (f *groupedFold) expand(v *View, gs *groupedScan, spec *query.GroupedSpec, codes [][]int32, rows int) Increment {
	stride := len(spec.Family)
	nOut := max(len(codes), 1)
	cells := make([]accumulator, nOut*stride)
	accs := make([]*accumulator, len(cells))
	for g := 0; g < nOut; g++ {
		var m *groupMaster
		if g < len(codes) {
			if idx, ok := f.lookup[query.PackKey(codes[g], gs.shifts)]; ok {
				m = f.masters[idx]
			}
		}
		for j := 0; j < stride; j++ {
			acc := &cells[g*stride+j]
			*acc = accumulator{sn: spec.Family[j], scanned: f.scanned, baseRows: v.Sample.BaseRows}
			k := gs.avgIdx[j]
			switch {
			case m != nil && k >= 0:
				acc.moments = m.avg[k]
			case m != nil:
				acc.moments = m.freq
			case k < 0:
				acc.moments.AddZeros(int64(f.scanned))
			}
			accs[g*stride+j] = acc
		}
	}
	return v.increment(accs, rows)
}

// GroupedRunToCompletion executes a grouped query in one pass over the
// sample: the discovery kernel aggregates and discovers groups block by
// block, on the same merge tree as RunToCompletion, so the estimates are
// bit-identical to decomposing the answer set and folding the snippets.
func (v *View) GroupedRunToCompletion(spec *query.GroupedSpec, nmax int) *GroupedResult {
	if nmax <= 0 {
		nmax = query.DefaultNmax
	}
	res, _ := v.groupedPass(newBanks(v, newGroupedFold), spec, nmax)
	return res
}

// groupedPass takes discovery banks to the whole sample and returns the
// answer set with its estimates, and the rows read.
func (v *View) groupedPass(banks []*bank[*groupedFold], spec *query.GroupedSpec, nmax int) (*GroupedResult, int) {
	// Compiled against this spec each pass: the result's estimates must
	// reference the caller's plan.
	gs := newDiscoverScan(spec)
	f, scanned := v.foldGrouped(banks, gs, v.pieceTargets(v.SampleRows), 0)
	res := f.answerSet(v, spec, nmax)
	res.Update = f.expand(v, gs, spec, res.codes, v.SampleRows)
	return res, scanned
}

// foldGrouped takes discovery banks to their targets (pieceTargets of a
// prefix) — one discovery fold per piece — and merges the piece folds, in
// piece order, into a fresh fold, each piece entering as one pseudo-unit of
// its codes, moments and rows. That merge's first-sight and absent-group
// backfills are the pure counts the per-snippet banks of the other pieces
// hold, so the result is the per-snippet piece-order merge bit for bit. It
// returns the merged fold and the rows read.
func (v *View) foldGrouped(banks []*bank[*groupedFold], gs *groupedScan, targets []int, workers int) (*groupedFold, int) {
	cur, scanned := foldBanks(banks, v.Sample.Pieces(), targets, bankOps[*groupedFold, groupedUnit]{
		scan:  func(units []unit) []groupedUnit { return discoverUnits(gs, units, workers) },
		merge: func(f *groupedFold, parts []groupedUnit) { f.merge(gs, parts) },
		clone: (*groupedFold).clone,
	})
	emit := newGroupedFold()
	for b, f := range cur {
		if targets[b] > 0 {
			emit.merge(gs, []groupedUnit{f.pseudoUnit()})
		}
	}
	return emit, scanned
}
