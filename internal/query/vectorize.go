package query

import (
	"repro/internal/storage"
)

// Vectorized region evaluation. The scan engine partitions a table into
// storage.BlockSize blocks; for each block a Region first consults the zone
// maps (PruneBlock) and only when the answer is indeterminate evaluates the
// predicate column-at-a-time into a reusable selection vector (MatchBlock).
// This replaces per-row Matches dispatch on the hot path: each constrained
// column is filtered in one tight loop over its backing slice.
//
// Both entry points work off the region's finalized execution form
// (Region.execForm): constraints flattened into column-ordered slices with
// open numeric bounds pre-normalized — at bind/finalize time, once — to
// closed bounds on adjacent floats.
//
// The numeric and single-code categorical filter loops are branch-free:
// every candidate row index is written unconditionally and the write
// position advances by a 0/1 flag, so selectivity never stalls the branch
// predictor. The numeric kernels compare each bound into its own flag and
// add the AND of the two. Written as one condition, `v >= lo && v <= hi`
// short-circuits into two conditional jumps (UCOMISD; JB; UCOMISD; JB on
// amd64), which the compiler does not turn into SETcc; on a time-range
// predicate over an unsorted column those jumps mispredict on a large share
// of rows, and the loop runs at under a third of the speed (BenchmarkScan,
// shuffled). Each flag on its own lowers to SETAE, and the pair to SETAE,
// SETAE, ANDQ, ADDQ.

// BlockDecision is the outcome of zone-map pruning for one block.
type BlockDecision uint8

const (
	// BlockPartial means the zone maps cannot decide; rows must be tested.
	BlockPartial BlockDecision = iota
	// BlockEmpty means provably no row of the block matches.
	BlockEmpty
	// BlockFull means provably every row of the block matches.
	BlockFull
)

// PruneBlock classifies block b of table t against the region using only
// zone maps, in O(#constraints) — no row access. BlockEmpty and BlockFull
// let the scan engine skip per-row predicate work entirely.
func (g *Region) PruneBlock(t *storage.Table, b int) BlockDecision {
	ex := g.execForm()
	if ex.empty {
		return BlockEmpty
	}
	full := true
	for i := range ex.nums {
		p := &ex.nums[i]
		r := p.r
		z := t.NumZone(p.col, b)
		// Entirely below or above the range ⇒ empty.
		if z.Max < r.Lo || (z.Max == r.Lo && r.LoOpen) ||
			z.Min > r.Hi || (z.Min == r.Hi && r.HiOpen) {
			return BlockEmpty
		}
		// The range is an interval, so containing both extremes contains
		// every value in between.
		if !(r.Contains(z.Min) && r.Contains(z.Max)) {
			full = false
		}
	}
	for i := range ex.cats {
		p := &ex.cats[i]
		z := t.CatZone(p.col, b)
		any := false
		for _, c := range p.set.Codes {
			if z.ContainsCode(c) {
				any = true
				break
			}
		}
		if !any {
			return BlockEmpty
		}
		// Only a single-valued block can be proven fully admitted.
		if !(z.MinCode == z.MaxCode && p.set.Contains(z.MinCode)) {
			full = false
		}
	}
	if full {
		return BlockFull
	}
	return BlockPartial
}

// MatchBlock evaluates the region over rows [lo, hi) of t and returns the
// selection vector of matching absolute row indices, ascending. sel is a
// scratch buffer reused across calls (pass sel[:0] semantics: its contents
// are overwritten, its capacity reused); the returned slice aliases it when
// capacity suffices.
func (g *Region) MatchBlock(t *storage.Table, lo, hi int, sel []int32) []int32 {
	sel = sel[:0]
	if hi <= lo {
		return sel
	}
	ex := g.execForm()
	if ex.empty {
		return sel
	}
	if cap(sel) < hi-lo {
		sel = make([]int32, 0, hi-lo)
	}
	buf := sel[:hi-lo]
	n := 0
	first := true
	for i := range ex.nums {
		p := &ex.nums[i]
		vals := t.NumericCol(p.col)
		if first {
			n = filterNumInto(vals, lo, hi, p.lo, p.hi, buf)
			first = false
		} else {
			n = filterNum(vals, p.lo, p.hi, buf[:n])
		}
		if n == 0 {
			return buf[:0]
		}
	}
	for i := range ex.cats {
		p := &ex.cats[i]
		codes := t.CodesCol(p.col)
		if first {
			n = filterCatInto(codes, lo, hi, p.set, buf)
			first = false
		} else {
			n = filterCat(codes, p.set, buf[:n])
		}
		if n == 0 {
			return buf[:0]
		}
	}
	if first {
		// Unconstrained region: every row matches.
		for row := lo; row < hi; row++ {
			buf[row-lo] = int32(row)
		}
		n = hi - lo
	}
	return buf[:n]
}

// filterNumInto seeds the selection vector with the rows of [lo, hi) whose
// value lies in the closed interval [effLo, effHi]. dst must have hi-lo
// capacity; returns the match count. NaN values fail both comparisons and
// are never kept.
//
// Keep the two flags separate: `if v >= effLo && v <= effHi` compiles to
// conditional jumps, not SETcc (see the file comment).
func filterNumInto(vals []float64, lo, hi int, effLo, effHi float64, dst []int32) int {
	n := 0
	for row := lo; row < hi; row++ {
		v := vals[row]
		dst[n] = int32(row)
		a, b := 0, 0
		if v >= effLo {
			a = 1
		}
		if v <= effHi {
			b = 1
		}
		n += a & b
	}
	return n
}

// filterNum narrows an existing selection vector in place (the write index
// never passes the read index, so compaction is safe), returning the new
// length. Same two-flag form as filterNumInto, for the same reason.
func filterNum(vals []float64, effLo, effHi float64, sel []int32) int {
	n := 0
	for _, row := range sel {
		v := vals[row]
		sel[n] = row
		a, b := 0, 0
		if v >= effLo {
			a = 1
		}
		if v <= effHi {
			b = 1
		}
		n += a & b
	}
	return n
}

// filterCatInto seeds the selection vector from a categorical constraint;
// dst must have hi-lo capacity. The single-code case — every grouped-query
// snippet region — runs branch-free like the numeric kernel.
func filterCatInto(codes []int32, lo, hi int, s CatSet, dst []int32) int {
	n := 0
	switch len(s.Codes) {
	case 0:
		return 0
	case 1:
		want := s.Codes[0]
		for row := lo; row < hi; row++ {
			dst[n] = int32(row)
			keep := 0
			if codes[row] == want {
				keep = 1
			}
			n += keep
		}
	default:
		for row := lo; row < hi; row++ {
			if catSetHas(s, codes[row]) {
				dst[n] = int32(row)
				n++
			}
		}
	}
	return n
}

// filterCat narrows an existing selection vector in place.
func filterCat(codes []int32, s CatSet, sel []int32) int {
	n := 0
	switch len(s.Codes) {
	case 0:
		return 0
	case 1:
		want := s.Codes[0]
		for _, row := range sel {
			sel[n] = row
			keep := 0
			if codes[row] == want {
				keep = 1
			}
			n += keep
		}
	default:
		for _, row := range sel {
			if catSetHas(s, codes[row]) {
				sel[n] = row
				n++
			}
		}
	}
	return n
}

// smallSetScan is the set size below which a linear scan beats binary search
// in the per-row membership test.
const smallSetScan = 8

func catSetHas(s CatSet, code int32) bool {
	if len(s.Codes) <= smallSetScan {
		for _, c := range s.Codes {
			if c == code {
				return true
			}
		}
		return false
	}
	return s.Contains(code)
}
