package aqp

import (
	"fmt"

	"repro/internal/randx"
	"repro/internal/storage"
)

// Sample is an offline uniform random sample of a base relation, stored in
// random order so that any prefix is itself a uniform sample — the property
// online aggregation needs to refine answers batch by batch (§8.1's
// NoLearn "creates random samples of the original tables offline and splits
// them into multiple batches of tuples").
type Sample struct {
	// Data holds the sampled rows in shuffled order. For a partitioned
	// sample (Parts != nil) it holds only the unpartitioned tail: rows
	// appended after the last (re-)stratification, logically ordered after
	// every partitioned row. The global sample order is then the interleave
	// order of Parts followed by Data.
	Data *storage.Table
	// Parts, when non-nil, holds the stratified partitioned layout built by
	// the last rebuild (see storage.PartitionedSample). It is immutable;
	// appends land in Data.
	Parts *storage.PartitionedSample
	// Fraction is the sampling ratio |sample| / |base|.
	Fraction float64
	// BatchSize is the number of rows per online-aggregation batch.
	BatchSize int
	// BaseRows is the base relation's cardinality (the |r| in
	// COUNT(*) = FREQ(*) × table cardinality).
	BaseRows int
	// Gen is the sample generation: 0 for the offline-built sample, bumped
	// once per Engine.RebuildSample epoch swap. Within a generation the
	// sample table is append-only (prefixes are immortal, so ViewAtGen can
	// replay); across generations rows are re-laid-out and replays must
	// name the generation (Engine.ViewAtGen).
	Gen uint64
}

// DefaultBatches is how many batches a sample is split into when no batch
// size is specified.
const DefaultBatches = 20

// BuildSample draws a uniform random sample without replacement.
// fraction must be in (0, 1]; batch <= 0 selects Rows/DefaultBatches.
func BuildSample(base *storage.Table, fraction float64, batch int, seed int64) (*Sample, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("aqp: sample fraction %v out of (0,1]", fraction)
	}
	n := base.Rows()
	k := int(float64(n) * fraction)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := randx.New(seed)
	idx := rng.Perm(n)[:k]
	data := base.SelectRows(base.Name()+"_sample", idx)
	if batch <= 0 {
		batch = (k + DefaultBatches - 1) / DefaultBatches
		if batch < 1 {
			batch = 1
		}
	}
	return &Sample{Data: data, Fraction: fraction, BatchSize: batch, BaseRows: n}, nil
}

// Rows returns the total sample row count: all partitioned rows plus the
// unpartitioned tail. For an unpartitioned sample it is just Data.Rows().
func (s *Sample) Rows() int {
	n := s.Data.Rows()
	if s.Parts != nil {
		n += s.Parts.Rows()
	}
	return n
}

// Pieces returns the sample's physical tables in materialize order: the
// strata of a partitioned sample one after another, then the tail (just
// Data when unpartitioned). This is not the interleaved scan order. Within
// a generation the strata never change and only the tail grows, so every
// prefix of the sequence survives later appends row for row.
func (s *Sample) Pieces() []*storage.Table {
	if s.Parts == nil {
		return []*storage.Table{s.Data}
	}
	return append(s.Parts.StrataTables(), s.Data)
}

// materialize flattens the sample into one table in Pieces order, sharing
// dictionaries by reference. For an unpartitioned sample it returns Data
// itself.
func (s *Sample) materialize() *storage.Table {
	if s.Parts == nil {
		return s.Data
	}
	return storage.Concat(s.Data.Name(), s.Pieces())
}

// Batches returns the number of batches in the sample.
func (s *Sample) Batches() int {
	if s.Rows() == 0 {
		return 0
	}
	return (s.Rows() + s.BatchSize - 1) / s.BatchSize
}

// BatchBounds returns the [start, end) row range of batch i.
func (s *Sample) BatchBounds(i int) (int, int) {
	start := i * s.BatchSize
	end := start + s.BatchSize
	if end > s.Rows() {
		end = s.Rows()
	}
	return start, end
}
