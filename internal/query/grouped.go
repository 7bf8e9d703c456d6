package query

import (
	"math/bits"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Grouped-execution planning. The §2.3 decomposition of a GROUP BY query
// emits one snippet per (aggregate, group value), every one a clone of the
// query's base region constrained to a single dictionary code per grouping
// column. GroupedSpecOf describes that family before the groups are known —
// the base region, the grouping columns and the per-group snippet family —
// so the discovery kernel in internal/aqp (scan_grouped.go) can evaluate the
// base region once per block, scatter each matched row to its group's
// accumulator bank by its packed code tuple, and find the groups in the
// same pass that aggregates them.

// PackKey packs one code tuple (group column order) into the probe key.
func PackKey(codes []int32, shifts []uint) uint64 {
	var key uint64
	for j, c := range codes {
		key = key<<shifts[j] | uint64(uint32(c))
	}
	return key
}

// packShifts computes the per-column bit widths for packing group codes of
// the given columns into one uint64, sized by the current dictionary
// cardinalities (codes in any frozen snapshot are strictly below them).
// ok=false when the widths do not fit 64 bits.
func packShifts(t *storage.Table, groupCols []int) (shifts []uint, ok bool) {
	shifts = make([]uint, len(groupCols))
	total := 0
	for j, col := range groupCols {
		b := bits.Len(uint(t.DictOf(col).Size()))
		if b == 0 {
			b = 1
		}
		shifts[j] = uint(b)
		total += b
	}
	if total > 64 {
		return nil, false
	}
	return shifts, true
}

// GroupedSpec describes a grouped query before its groups are known: the
// shared base region, the grouping columns, and the snippet family one group
// will instantiate. Every scan of a grouped statement — one-shot, carried,
// progressive — hands it to the discovery kernel (internal/aqp), which
// allocates accumulator slots for group code tuples as rows reveal them in
// the same pass that aggregates.
type GroupedSpec struct {
	// Table is the bound base relation.
	Table *storage.Table
	// GroupCols are the grouping columns in statement order (all
	// categorical — numeric grouping falls back to the per-snippet path).
	GroupCols []int
	// Base is the query's WHERE region with no group constraints.
	Base *Region
	// Family holds the per-group snippet instances of the ungrouped
	// decomposition (region = Base); their kinds drive estimation and their
	// order matches what Decompose will emit per discovered group.
	Family []*Snippet
	// Shifts are the code-packing bit widths for GroupCols (see PackKey).
	Shifts []uint
}

// GroupedSpecOf builds the discovery-scan spec for a checked grouped
// statement, or nil when the statement is outside the foldable shape: no
// grouping columns, a numeric grouping column, unpackable code tuples, or a
// decomposition error (the caller's fallback re-runs Decompose and surfaces
// the error there).
func GroupedSpecOf(stmt *sqlparse.SelectStmt, t *storage.Table, groupCols []int) *GroupedSpec {
	if len(groupCols) == 0 {
		return nil
	}
	for _, col := range groupCols {
		if t.Schema().Col(col).Kind != storage.Categorical {
			return nil
		}
	}
	shifts, ok := packShifts(t, groupCols)
	if !ok {
		return nil
	}
	decs, err := Decompose(stmt, t, nil, 1)
	if err != nil || len(decs) != 1 || len(decs[0].Snippets) == 0 {
		return nil
	}
	d := decs[0]
	return &GroupedSpec{
		Table:     t,
		GroupCols: groupCols,
		Base:      d.Snippets[0].Region,
		Family:    d.Snippets,
		Shifts:    shifts,
	}
}
