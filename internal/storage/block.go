package storage

// Block partitioning and zone maps. Every column of a Table is logically
// split into fixed-size blocks of BlockSize consecutive rows; each block
// carries a small summary (a "zone map") that the vectorized scan path uses
// to skip provably-empty blocks and to fast-path provably-full ones without
// touching a single row. Summaries are maintained incrementally: AppendRow
// updates the tail block in O(1) per cell, while AppendTable and SelectRows
// extend the maps for exactly the rows they add.
//
// Numeric columns summarize min/max. Categorical columns summarize the code
// range plus a 64-bit occupancy mask (bit c%64 set when code c occurs in the
// block) — exact for dictionaries of at most 64 values and a conservative
// Bloom-style filter beyond that.

// BlockSize is the number of rows per zone-mapped block. 4096 float64 cells
// are 32 KiB — one column block fits comfortably in L1/L2, which is what the
// vectorized scan kernels want.
const BlockSize = 4096

// NumZone is the zone map of one numeric column over one block.
type NumZone struct {
	Min, Max float64
}

// CatZone is the zone map of one categorical column over one block.
type CatZone struct {
	MinCode, MaxCode int32
	// Mask has bit (code % 64) set for every code present in the block. A
	// candidate code whose bit is clear provably does not occur.
	Mask uint64
}

// ContainsCode conservatively reports whether code may occur in the block:
// false means provably absent, true means possibly present.
func (z CatZone) ContainsCode(code int32) bool {
	if code < z.MinCode || code > z.MaxCode {
		return false
	}
	return z.Mask&(1<<uint(code%64)) != 0
}

// NumBlocks returns how many zone-mapped blocks the table's rows span.
func (t *Table) NumBlocks() int {
	return (t.rows + BlockSize - 1) / BlockSize
}

// BlockBounds returns the [lo, hi) row range of block b.
func (t *Table) BlockBounds(b int) (lo, hi int) {
	lo = b * BlockSize
	hi = lo + BlockSize
	if hi > t.rows {
		hi = t.rows
	}
	return lo, hi
}

// NumZone returns the zone map of numeric column col over block b.
func (t *Table) NumZone(col, b int) NumZone {
	if t.schema.Col(col).Kind != Numeric {
		panic(ErrTypeMismatch)
	}
	return t.numZones[col][b]
}

// CatZone returns the zone map of categorical column col over block b.
func (t *Table) CatZone(col, b int) CatZone {
	if t.schema.Col(col).Kind != Categorical {
		panic(ErrTypeMismatch)
	}
	return t.catZones[col][b]
}

// observeZoneNum folds value v at row index row into column col's zone maps.
// A NaN cell anywhere in the block sets both bounds to NaN, and no later
// value moves them, so range pruning calls the block partial for every
// range: a NaN matches no range, and a zone that skipped it would let a
// range the zone spans count the block full.
func (t *Table) observeZoneNum(col, row int, v float64) {
	b := row / BlockSize
	zs := t.numZones[col]
	if b == len(zs) {
		t.numZones[col] = append(zs, NumZone{Min: v, Max: v})
		return
	}
	z := &t.numZones[col][b]
	if v < z.Min || v != v {
		z.Min = v
	}
	if v > z.Max || v != v {
		z.Max = v
	}
}

// observeZoneCat folds code c at row index row into column col's zone maps.
func (t *Table) observeZoneCat(col, row int, c int32) {
	b := row / BlockSize
	zs := t.catZones[col]
	if b == len(zs) {
		t.catZones[col] = append(zs, CatZone{MinCode: c, MaxCode: c, Mask: 1 << uint(c%64)})
		return
	}
	z := &t.catZones[col][b]
	if c < z.MinCode {
		z.MinCode = c
	}
	if c > z.MaxCode {
		z.MaxCode = c
	}
	z.Mask |= 1 << uint(c%64)
}

// extendZones rebuilds zone maps for rows [fromRow, t.rows) from the column
// data — the bulk-maintenance path AppendTable and SelectRows use after
// splicing whole column ranges.
func (t *Table) extendZones(fromRow int) {
	for col := 0; col < t.schema.Len(); col++ {
		if t.schema.Col(col).Kind == Numeric {
			vals := t.numeric[col]
			for r := fromRow; r < len(vals); r++ {
				t.observeZoneNum(col, r, vals[r])
			}
		} else {
			codes := t.codes[col]
			for r := fromRow; r < len(codes); r++ {
				t.observeZoneCat(col, r, codes[r])
			}
		}
	}
}
