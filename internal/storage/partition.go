package storage

import "sort"

// Partitioned sample layout. The sample is split into a fixed number of
// micro-strata (SampleStrata), each an immutable frozen Table sharing the
// base dictionaries by reference. K serving partitions group contiguous
// strata; because the stratum — not the partition — is the scan granule,
// every query answer is bit-identical for any K (partition-count
// invariance).
//
// Stratified layout: rows are range-partitioned on a stratum column by
// quantile rank, so each stratum covers a narrow value slice and its zone
// maps prune selective predicates. Within a stratum the (shuffled) arrival
// order is preserved, so any per-stratum prefix is itself a uniform random
// subsample. A deterministic interleave index maps a global sample prefix to
// per-stratum prefixes: progressive and time-bounded execution keep
// row-level prefix-uniformity while zone maps stay tight.

// SampleStrata is the fixed number of micro-strata a partitioned sample is
// built from, independent of the serving partition count K. It is divisible
// by 1, 2, 4, 7, 8, 14 and 28 so common K choices get equal-sized
// partitions, but any K in [1, SampleStrata] is valid.
const SampleStrata = 56

// interleaveCkpt is the spacing of prefix-count checkpoints in the
// interleave index: PrefixCounts scans at most this many entries.
const interleaveCkpt = 4096

// PartitionedSample holds the strata of a partitioned sample plus the
// interleave index mapping global prefix lengths to per-stratum prefix
// lengths. It is immutable after construction; post-build appends accumulate
// in a separate tail table owned by the caller.
type PartitionedSample struct {
	strata []*Table
	col    int // stratum column, -1 for round-robin strata
	parts  int // serving partition count K
	rows   int

	// order[i] is the stratum that owns global sample position i; cum[c] is
	// the per-stratum count over order[:c*interleaveCkpt].
	order []uint8
	cum   [][]int32
}

// BuildStratified partitions src's rows into SampleStrata strata and parts
// serving partitions. idx is the (shuffled) global sample order; its
// traversal order becomes the within-stratum arrival order, so a shuffled
// idx yields prefix-uniform strata. When col >= 0 rows are range-partitioned
// on that numeric column by quantile rank; when col < 0 strata are assigned
// round-robin (shuffled layout: prefix-uniform but no zone-map locality).
// parts is clamped to [1, SampleStrata].
func BuildStratified(src *Table, idx []int, col, parts int) *PartitionedSample {
	if parts < 1 {
		parts = 1
	}
	if parts > SampleStrata {
		parts = SampleStrata
	}
	n := len(idx)
	members := make([][]int, SampleStrata)
	if col >= 0 {
		// Quantile-rank stratification: sort the selected rows by key (row
		// index breaking ties, so equal keys split deterministically) and
		// give stratum s the ranks [s*n/56, (s+1)*n/56).
		keys := src.NumericCol(col)
		byKey := make([]int, n)
		for i := range byKey {
			byKey[i] = i
		}
		sort.Slice(byKey, func(a, b int) bool {
			ra, rb := idx[byKey[a]], idx[byKey[b]]
			if keys[ra] != keys[rb] {
				return keys[ra] < keys[rb]
			}
			return ra < rb
		})
		strat := make([]uint8, n)
		for rank, pos := range byKey {
			s := rank * SampleStrata / n
			if s >= SampleStrata {
				s = SampleStrata - 1
			}
			strat[pos] = uint8(s)
		}
		for pos, r := range idx {
			s := strat[pos]
			members[s] = append(members[s], r)
		}
	} else {
		for pos, r := range idx {
			members[pos%SampleStrata] = append(members[pos%SampleStrata], r)
		}
	}

	ps := &PartitionedSample{col: col, parts: parts, rows: n}
	ps.strata = make([]*Table, SampleStrata)
	for s, m := range members {
		ps.strata[s] = src.SelectRows(src.Name(), m).Snapshot()
	}
	ps.buildInterleave(members)
	return ps
}

// buildInterleave computes the deterministic proportional interleave: global
// position i belongs to the stratum whose next row has the smallest
// fractional position (j+0.5)/n_s, ties to the lower stratum id. Compared
// exactly with int64 cross-multiplication, so the index is identical on
// every platform and independent of K.
func (ps *PartitionedSample) buildInterleave(members [][]int) {
	ps.order = make([]uint8, ps.rows)
	counts := make([]int64, SampleStrata)
	sizes := make([]int64, SampleStrata)
	for s, m := range members {
		sizes[s] = int64(len(m))
	}
	ps.cum = make([][]int32, 0, ps.rows/interleaveCkpt+1)
	for i := 0; i < ps.rows; i++ {
		if i%interleaveCkpt == 0 {
			ck := make([]int32, SampleStrata)
			for s := range ck {
				ck[s] = int32(counts[s])
			}
			ps.cum = append(ps.cum, ck)
		}
		best := -1
		for s := 0; s < SampleStrata; s++ {
			if counts[s] >= sizes[s] {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			// (2*j_s+1)/n_s < (2*j_best+1)/n_best, exactly.
			if (2*counts[s]+1)*sizes[best] < (2*counts[best]+1)*sizes[s] {
				best = s
			}
		}
		ps.order[i] = uint8(best)
		counts[best]++
	}
}

// Rows returns the total row count across all strata (the tail table is not
// included; it is owned by the caller).
func (ps *PartitionedSample) Rows() int { return ps.rows }

// NumStrata returns the number of micro-strata.
func (ps *PartitionedSample) NumStrata() int { return len(ps.strata) }

// StrataTables returns the strata in stratum order (a fresh slice).
func (ps *PartitionedSample) StrataTables() []*Table {
	return append([]*Table(nil), ps.strata...)
}

// NumPartitions returns the serving partition count K.
func (ps *PartitionedSample) NumPartitions() int { return ps.parts }

// StratumColumn returns the stratum column index, or -1 for round-robin.
func (ps *PartitionedSample) StratumColumn() int { return ps.col }

// PartitionStrata returns the [lo, hi) stratum range of partition p.
func (ps *PartitionedSample) PartitionStrata(p int) (lo, hi int) {
	s := len(ps.strata)
	return p * s / ps.parts, (p + 1) * s / ps.parts
}

// PartitionRows returns the row count of partition p.
func (ps *PartitionedSample) PartitionRows(p int) int {
	lo, hi := ps.PartitionStrata(p)
	n := 0
	for s := lo; s < hi; s++ {
		n += ps.strata[s].Rows()
	}
	return n
}

// PrefixCounts returns, for each stratum, how many of its rows fall inside
// the global prefix [0, p). dst is reused when it has capacity. p is clamped
// to [0, Rows()].
func (ps *PartitionedSample) PrefixCounts(p int, dst []int) []int {
	if p < 0 {
		p = 0
	}
	if p > ps.rows {
		p = ps.rows
	}
	if cap(dst) < SampleStrata {
		dst = make([]int, SampleStrata)
	}
	dst = dst[:SampleStrata]
	if len(ps.cum) == 0 { // zero-row sample
		for s := range dst {
			dst[s] = 0
		}
		return dst
	}
	c := p / interleaveCkpt
	if c >= len(ps.cum) {
		c = len(ps.cum) - 1
	}
	ck := ps.cum[c]
	for s := range dst {
		dst[s] = int(ck[s])
	}
	for i := c * interleaveCkpt; i < p; i++ {
		dst[ps.order[i]]++
	}
	return dst
}

// ZoneSelectivity reports how tightly partition p's zone maps bound the
// stratum column: the mean over the partition's blocks of (block zone width
// / column domain width). Near 0 means a selective range predicate on the
// stratum column prunes almost every block; 1 means no pruning power (and is
// returned for round-robin layouts or degenerate domains).
func (ps *PartitionedSample) ZoneSelectivity(p int) float64 {
	if ps.col < 0 {
		return 1
	}
	lo, hi := ps.PartitionStrata(p)
	var sum float64
	blocks := 0
	for s := lo; s < hi; s++ {
		t := ps.strata[s]
		dlo, dhi := t.Domain(ps.col)
		if dhi <= dlo {
			continue
		}
		for b := 0; b < t.NumBlocks(); b++ {
			z := t.NumZone(ps.col, b)
			sum += (z.Max - z.Min) / (dhi - dlo)
			blocks++
		}
	}
	if blocks == 0 {
		return 1
	}
	return sum / float64(blocks)
}

// Concat materializes the given tables (identical schema object required)
// into one table in order, sharing dictionaries by reference exactly like
// SelectRows. It is how a partitioned sample is flattened back into a single
// relation for re-stratification.
func Concat(name string, parts []*Table) *Table {
	if len(parts) == 0 {
		panic("storage: Concat of zero tables")
	}
	first := parts[0]
	out := NewTable(name, first.schema)
	rows := 0
	for _, p := range parts {
		if p.schema != first.schema {
			panic("storage: Concat requires the identical schema object")
		}
		rows += p.rows
	}
	for i := 0; i < first.schema.Len(); i++ {
		if first.schema.Col(i).Kind == Numeric {
			col := make([]float64, 0, rows)
			for _, p := range parts {
				col = append(col, p.numeric[i]...)
			}
			out.numeric[i] = col
		} else {
			out.dicts[i] = first.dicts[i]
			col := make([]int32, 0, rows)
			for _, p := range parts {
				if p.dicts[i] != first.dicts[i] {
					panic("storage: Concat requires shared dictionaries")
				}
				col = append(col, p.codes[i]...)
			}
			out.codes[i] = col
		}
	}
	out.rows = rows
	for i := 0; i < first.schema.Len(); i++ {
		if first.schema.Col(i).Kind == Numeric {
			out.mins[i], out.maxs[i], out.domainSet[i] = ConcatDomain(parts, i)
		}
	}
	out.extendZones(0)
	return out
}

// ConcatDomain returns numeric column col's domain over parts laid end to
// end — the Domain of Concat(name, parts) — without copying a row: the
// union of the parts' domains, skipping parts with none. set reports
// whether any part had one.
func ConcatDomain(parts []*Table, col int) (lo, hi float64, set bool) {
	for _, p := range parts {
		p.mu.RLock()
		pl, ph, ok := p.mins[col], p.maxs[col], p.domainSet[col]
		p.mu.RUnlock()
		switch {
		case !ok:
		case !set:
			lo, hi, set = pl, ph, true
		default:
			if pl < lo {
				lo = pl
			}
			if ph > hi {
				hi = ph
			}
		}
	}
	return lo, hi, set
}
