package aqp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/randx"
	"repro/internal/storage"
)

// Epoch-swap sample rebuild. Streamed appends extend the sample at its
// tail (Engine.Append), so a long-running server's sample slowly loses the
// property online aggregation depends on: that *any prefix* is itself a
// uniform random sample of the grown relation. Full-sample estimates stay
// unbiased — each append stratum is drawn at the same fraction — but short
// online-aggregation prefixes skew toward older data, and the paper's
// Lemma 3 variance accounting assumes prefix-uniformity when a query stops
// early. RebuildSample restores it during quiet periods: it re-lays-out
// the sample into a fresh layout and republishes atomically, while queries
// pinned to the old generation keep scanning it untouched.

// RebuildOptions tunes the layout RebuildSample produces.
type RebuildOptions struct {
	// ClusterColumn, when >= 0 (and Partitions <= 0), names a numeric column
	// to build a block-clustered, zone-map-friendly layout around: rows are
	// sorted by the column, chunked into storage.BlockSize blocks (each
	// spanning a narrow value range, so Region.PruneBlock skips most of
	// them), and the *blocks* are emitted in random order. Prefixes are then
	// uniform over blocks rather than rows — a cluster sample: still
	// unbiased across the block draw, but with higher short-prefix variance
	// when the cluster column correlates with the measure. When < 0 (the
	// default), the rebuild is a pure row shuffle: every prefix is a uniform
	// row sample, and zone maps stay as loose as any shuffled layout's.
	ClusterColumn int
	// Partitions, when >= 1, builds the stratified partitioned layout
	// instead: the sample is split into storage.SampleStrata immutable
	// micro-strata grouped into this many serving partitions (clamped to
	// [1, SampleStrata]). Unlike ClusterColumn's block-cluster tradeoff, the
	// stratified layout keeps row-level prefix-uniformity AND tight zone
	// maps simultaneously, and answers are bit-identical for every partition
	// count. ClusterColumn is ignored when Partitions >= 1.
	Partitions int
	// StratumColumn, when >= 0 and Partitions >= 1, range-partitions rows on
	// that numeric column by quantile rank, so each stratum covers a narrow
	// value slice and zone maps prune selective predicates on it. When < 0
	// strata are assigned round-robin over the shuffled order (prefix-uniform
	// but without zone-map locality).
	StratumColumn int
}

// DefaultRebuildOptions selects the pure-shuffle, prefix-uniform,
// unpartitioned layout.
func DefaultRebuildOptions() RebuildOptions {
	return RebuildOptions{ClusterColumn: -1, StratumColumn: -1}
}

// ErrBadLayout reports RebuildOptions that name an unusable layout column.
// Errors carrying it are *LayoutError; errors.Is(err, ErrBadLayout) matches.
var ErrBadLayout = errors.New("aqp: invalid sample layout")

// LayoutError is the concrete invalid-layout error: it names the offending
// option field and column index so the serving layer can build a structured
// 400 from it.
type LayoutError struct {
	Field  string // "cluster_column" or "stratum_column"
	Column int
	Reason string
}

func (e *LayoutError) Error() string {
	return fmt.Sprintf("aqp: %s %d is %s", e.Field, e.Column, e.Reason)
}

// Is makes errors.Is(err, ErrBadLayout) succeed.
func (e *LayoutError) Is(target error) bool { return target == ErrBadLayout }

// validateLayout checks the layout column the options would actually use:
// clusterShuffledIndices and the stratified build both sort on a numeric
// column, so a categorical or out-of-range index must be rejected up front
// (it used to panic deep inside the rebuild).
func validateLayout(schema *storage.Schema, opts RebuildOptions) error {
	check := func(field string, col int) error {
		switch {
		case col < 0:
			return nil
		case col >= schema.Len():
			return &LayoutError{Field: field, Column: col, Reason: "out of range"}
		case schema.Col(col).Kind != storage.Numeric:
			return &LayoutError{Field: field, Column: col, Reason: "not a numeric column"}
		}
		return nil
	}
	if opts.Partitions >= 1 {
		return check("stratum_column", opts.StratumColumn)
	}
	return check("cluster_column", opts.ClusterColumn)
}

// RebuildSample re-lays-out the sample (per opts) and swaps it in as the
// next sample generation. The swap is atomic with respect to readers: in-
// flight queries keep their pinned view of the old generation, whose final
// state is retired frozen so ViewAtGen can replay any historical prefix of
// it; the next Acquire observes the new layout. The sample's *content* (row
// multiset, fraction, batch size, base cardinality) is unchanged — only the
// physical order moves — so the synopsis and every full-sample answer are
// unaffected.
//
// With opts.Partitions >= 1 the rebuild produces the stratified partitioned
// layout: every micro-stratum gets its own generation-swapped frozen table
// under this one sample generation, and fresh appends land in a new empty
// tail. The stratum assignment and interleave index depend only on the seed
// and the stratum column — never on the partition count — so rebuilds
// preserve partition-count invariance.
//
// Rebuilding is O(sample size) time and memory and serializes with Append;
// run it in quiet periods (the serving layer's auto-rebuild trigger does).
// Each retired generation keeps its rows reachable — one sample-sized
// layout per rebuild — until the retention bound evicts it: with
// SetMaxRetainedGens(0) (the default) replay prefixes are immortal and the
// retained set grows one generation per rebuild for the life of the engine;
// with a positive bound the oldest unpinned generations are dropped here,
// so long-running servers hold at most that many retired generations (plus
// any pinned by live streams). Returns the new generation number; on an
// invalid layout (see validateLayout) it returns the current generation and
// an error wrapping ErrBadLayout, leaving the sample untouched.
func (e *Engine) RebuildSample(seed int64, opts RebuildOptions) (uint64, error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	cur := e.sample.Load()
	if err := validateLayout(cur.Data.Schema(), opts); err != nil {
		return cur.Gen, err
	}
	// A successful explicit layout becomes the engine default, so subsequent
	// default rebuilds (the serving layer's auto-rebuild) preserve it.
	e.layout = opts
	whole := cur.materialize()
	ns := *cur
	if opts.Partitions >= 1 {
		idx := randx.New(seed).Perm(whole.Rows())
		ns.Parts = storage.BuildStratified(whole, idx, opts.StratumColumn, opts.Partitions)
		// The tail starts empty, sharing schema and dictionaries with the
		// strata so appended codes stay consistent across spans.
		ns.Data = whole.SelectRows(whole.Name(), nil)
	} else {
		var idx []int
		if opts.ClusterColumn >= 0 {
			idx = clusterShuffledIndices(whole, opts.ClusterColumn, seed)
		} else {
			idx = randx.New(seed).Perm(whole.Rows())
		}
		ns.Parts = nil
		ns.Data = whole.SelectRows(whole.Name(), idx)
	}
	// Retire the old generation frozen: pinned views already share its
	// backing arrays, and replays need its prefixes for as long as the
	// retention bound (SetMaxRetainedGens; 0 = forever) keeps them. The
	// retired Sample keeps its Parts pointer — strata are already frozen —
	// so partitioned generations replay through the same span logic.
	rs := *cur
	rs.Data = cur.Data.Snapshot()
	e.retired = append(e.retired, &rs)
	ns.Gen = cur.Gen + 1
	e.sample.Store(&ns)
	e.evictLocked()
	e.publishLocked()
	return ns.Gen, nil
}

// bootLayoutSeed shuffles the in-place gen-0 re-stratification performed by
// SetSampleLayout. Fixed so the boot layout is deterministic for a given
// dataset and configuration (and identical for every partition count).
const bootLayoutSeed = 0x5eed0917

// SetSampleLayout installs the engine's default rebuild layout and, when it
// selects a partitioned layout, re-stratifies the live sample in place at
// its current generation (under bootLayoutSeed, so the result is
// deterministic and partition-count invariant). This is a boot-time call:
// it does not bump the sample generation, so replays of queries served
// *before* the call against a re-laid-out generation would be
// meaningless. Returns an error wrapping ErrBadLayout (and changes
// nothing) when the options name an unusable column.
func (e *Engine) SetSampleLayout(opts RebuildOptions) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	cur := e.sample.Load()
	if err := validateLayout(cur.Data.Schema(), opts); err != nil {
		return err
	}
	e.layout = opts
	if opts.Partitions >= 1 {
		whole := cur.materialize()
		idx := randx.New(bootLayoutSeed).Perm(whole.Rows())
		ns := *cur
		ns.Parts = storage.BuildStratified(whole, idx, opts.StratumColumn, opts.Partitions)
		ns.Data = whole.SelectRows(whole.Name(), nil)
		e.sample.Store(&ns)
		e.view.Store(nil)
	} else if cur.Parts != nil {
		whole := cur.materialize()
		ns := *cur
		ns.Parts = nil
		ns.Data = whole
		e.sample.Store(&ns)
		e.view.Store(nil)
	}
	return nil
}

// Layout returns the engine's default rebuild layout (see SetSampleLayout).
func (e *Engine) Layout() RebuildOptions {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.layout
}

// PartitionStat summarizes one serving partition of the live sample for the
// serving layer's /stats and /metrics surfaces.
type PartitionStat struct {
	// Partition is the partition index in [0, K).
	Partition int
	// Strata is how many micro-strata the partition groups.
	Strata int
	// Rows is the partition's row count (tail rows excluded).
	Rows int
	// Gen is the sample generation the partition's strata were built under;
	// rebuilds swap every stratum under one generation, so all partitions
	// report the same value.
	Gen uint64
	// ZoneSelectivity is the mean stratum-column zone-map width over the
	// partition's blocks relative to the column domain (see
	// storage.PartitionedSample.ZoneSelectivity); near 0 means selective
	// predicates on the stratum column prune almost every block.
	ZoneSelectivity float64
}

// PartitionStats reports the live sample's per-partition statistics, or nil
// for an unpartitioned sample. Lock-free.
func (e *Engine) PartitionStats() []PartitionStat {
	s := e.sample.Load()
	if s.Parts == nil {
		return nil
	}
	out := make([]PartitionStat, s.Parts.NumPartitions())
	for p := range out {
		lo, hi := s.Parts.PartitionStrata(p)
		out[p] = PartitionStat{
			Partition:       p,
			Strata:          hi - lo,
			Rows:            s.Parts.PartitionRows(p),
			Gen:             s.Gen,
			ZoneSelectivity: s.Parts.ZoneSelectivity(p),
		}
	}
	return out
}

// clusterShuffledIndices orders rows by the cluster column, chunks the
// sorted order into BlockSize runs, and shuffles the full runs; the
// partial tail run stays last so every run lands block-aligned in the
// rebuilt table (a mid-stream partial run would shift later runs across
// block boundaries and widen their zone maps). Sorting is stable so equal
// keys keep their (already shuffled) relative order.
func clusterShuffledIndices(t *storage.Table, col int, seed int64) []int {
	n := t.Rows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	keys := t.NumericCol(col)
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	full := n / storage.BlockSize
	order := randx.New(seed).Perm(full)
	out := make([]int, 0, n)
	for _, b := range order {
		lo := b * storage.BlockSize
		out = append(out, idx[lo:lo+storage.BlockSize]...)
	}
	return append(out, idx[full*storage.BlockSize:]...)
}
