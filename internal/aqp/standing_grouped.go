package aqp

import (
	"strconv"
	"strings"

	"repro/internal/query"
)

// GroupedStandingScan is the grouped counterpart of StandingScan: the
// carried groupedFold behind one continuous GROUP BY query. Complete
// batches fold into the carried per-group master accumulators once; the
// trailing partial batch folds into a clone at each Refresh. Group
// discovery is incremental — a dictionary code first seen in a new batch
// allocates its master with an AddZeros backfill over every previously
// folded row, and a carried group absent from a new unit gets the same
// backfill — so the emitted result is bit-identical to a fresh
// GroupedRunToCompletion over the whole sample (the fold replays the exact
// statement sequence of the single-shot loop; see StandingScan for the
// batch-granularity merge-tree argument, which carries over unchanged).
//
// Besides the (generation, batch size) binding StandingScan checks, the
// carried fold is also only extendable when the refreshed grouped spec is
// arithmetically identical to the bound one: the base
// region bounds (appends can move domain-clipped bounds), the grouping
// columns, the code-packing shifts (dictionary growth past a power of two
// rewidths the packed keys) and the aggregate family. specKey fingerprints
// all four; on any mismatch Refresh reports false and the caller starts a
// fresh scan with one full fold.
type GroupedStandingScan struct {
	fold *groupedFold
	gs   *groupedScan

	bound   bool
	gen     uint64
	batch   int
	specKey string

	folded int // rows of complete batches folded into the carried masters
}

// NewGroupedStandingScan prepares empty carried state; the scan binds to a
// (view, spec) pair at the first Refresh.
func NewGroupedStandingScan() *GroupedStandingScan { return &GroupedStandingScan{} }

// Folded is the number of sample rows folded into the carried masters
// (complete batches only).
func (s *GroupedStandingScan) Folded() int { return s.folded }

// Bound reports whether the scan has folded against a view yet.
func (s *GroupedStandingScan) Bound() bool { return s.bound }

// groupedSpecKey fingerprints everything the carried fold's arithmetic
// depends on. Region.Key renders numeric bounds with %g (shortest
// round-trip), so equal keys imply bit-equal bounds — the same guarantee
// snippet keys give sameSnippets on the ungrouped path.
func groupedSpecKey(spec *query.GroupedSpec) string {
	var sb strings.Builder
	sb.WriteString(spec.Base.Key(spec.Table))
	for _, col := range spec.GroupCols {
		sb.WriteString("|g")
		sb.WriteString(strconv.Itoa(col))
	}
	for _, sh := range spec.Shifts {
		sb.WriteString("|s")
		sb.WriteString(strconv.Itoa(int(sh)))
	}
	for _, sn := range spec.Family {
		sb.WriteString("|f")
		sb.WriteString(sn.Func().String())
	}
	return sb.String()
}

// extends reports whether (v, a spec fingerprinted key) can extend the
// carried fold.
func (s *GroupedStandingScan) extends(v *View, key string) bool {
	return v.SampleGen == s.gen && v.Sample.BatchSize == s.batch &&
		v.SampleRows >= s.folded && key == s.specKey
}

// Refresh extends the fold to cover v's full sample and returns the
// grouped result — bit-identical to v.GroupedRunToCompletion(spec, nmax).
// ok=false means v or spec is incompatible with the carried state
// (different generation or batch size, a shrunken sample, or a
// spec whose fingerprint drifted): the caller must start a fresh
// GroupedStandingScan and pay one full fold.
func (s *GroupedStandingScan) Refresh(v *View, spec *query.GroupedSpec, nmax int) (*GroupedResult, bool) {
	if nmax <= 0 {
		nmax = query.DefaultNmax
	}
	key := groupedSpecKey(spec)
	if !s.bound {
		s.bound = true
		s.gen, s.batch = v.SampleGen, v.Sample.BatchSize
		s.specKey = key
		s.fold = newGroupedFold()
		s.gs = newDiscoverScan(spec)
	} else if !s.extends(v, key) {
		return nil, false
	} else {
		// Recompile against the refreshed spec: the fingerprint pinned the
		// bounds bit-equal, but the new spec carries the re-bound region and
		// re-decomposed family the result's estimates must reference.
		s.gs = newDiscoverScan(spec)
	}

	// The newly completed batches and the partial tail are cut into units
	// and scanned together (see View.fold); the completed ones merge into
	// the carried masters, in order.
	n := v.SampleRows
	complete := n - n%s.batch
	spans := v.batchSpans(nil, s.folded, complete, s.batch)
	units, cut := spanUnits(v.batchSpans(spans, complete, n, s.batch), len(spans))
	parts := discoverUnits(s.gs, units)
	s.fold.merge(s.gs, parts[:cut])
	s.folded = complete

	emit := s.fold
	if n > complete {
		// The trailing partial batch folds into a clone: its bounds grow
		// with the next append, and the vectorized fold of the grown range
		// is not the fold of the old range plus the delta.
		emit = s.fold.clone()
		emit.merge(s.gs, parts[cut:])
	}

	lastBatch := v.Sample.Batches() - 1
	if lastBatch < 0 {
		lastBatch = 0
	}
	return emit.result(v, s.gs, spec, nmax, lastBatch), true
}
