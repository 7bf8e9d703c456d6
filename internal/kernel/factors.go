package kernel

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/storage"
)

// unit is the one definition of the covariance product: the σ²=1
// covariance of two snippets' exact answers, dimension factors (numFactor,
// catFactor) multiplied left to right in schema order, 0 as soon as the
// product is. Besides the snippets it reads the length-scales, each
// numeric dimension's table domain (unconstrained ranges and missing
// length-scales resolve to it) and each categorical dimension's dictionary
// size — the inputs a cached unit value must be keyed by. Everything
// resolves against a.Table. Factors is the same product over every pair of
// a fixed snippet list, with each factor computed once per distinct input.
func unit(a, b *query.Snippet, ells map[int]float64, m *PairMemo) float64 {
	t := a.Table
	dims := t.Schema().DimensionCols()
	if m != nil && len(m.dims) != len(dims) {
		m.dims = make([]dimFactor, len(dims))
	}
	avg := a.Kind == query.AvgAgg
	cov := 1.0
	for di, col := range dims {
		if t.Schema().Col(col).Kind == storage.Numeric {
			ra := a.Region.NumRangeOf(col, t)
			rb := b.Region.NumRangeOf(col, t)
			ell, ok := ellOf(ells, col)
			if !ok {
				ell = fallbackEll(t, col)
			}
			if m != nil {
				cov *= m.dims[di].factor(avg, ra, rb, ell)
			} else {
				cov *= numFactor(avg, ra, rb, ell)
			}
		} else {
			dict := t.DictOf(col).Size()
			if dict == 0 {
				continue
			}
			f, dead := catFactor(avg, a.Region.CatSetOf(col), b.Region.CatSetOf(col), dict)
			if dead {
				return 0
			}
			cov *= f
		}
		if cov == 0 {
			return 0
		}
	}
	return cov
}

// ellOf is dimension col's length-scale in ells; ok is false when ells has
// none or a non-positive one, and the dimension then uses fallbackEll.
func ellOf(ells map[int]float64, col int) (ell float64, ok bool) {
	ell, ok = ells[col]
	return ell, ok && !(ell <= 0)
}

// fallbackEll is the width of col's table domain, at least 1.
func fallbackEll(t *storage.Table, col int) float64 {
	lo, hi := t.Domain(col)
	return math.Max(hi-lo, 1)
}

// numFactor is one numeric dimension's factor (Eq. 10): the mean of the
// squared-exponential kernel over the two ranges for AVG, its double
// integral for FREQ.
func numFactor(avg bool, ra, rb query.NumRange, ell float64) float64 {
	if avg {
		return mathx.SqExpMeanIntegral(ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell)
	}
	return mathx.SqExpDoubleIntegral(ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell)
}

// catFactor is one categorical dimension's factor (Eq. 16) over a
// dictionary of dict > 0 values: |F_a∩F_b|/(|F_a|·|F_b|) for AVG, the
// overlap count for FREQ. dead reports an AVG set that admits nothing,
// which makes the whole covariance 0 whatever the other factors are.
func catFactor(avg bool, sa, sb query.CatSet, dict int) (f float64, dead bool) {
	overlap := float64(sa.OverlapCount(sb, dict))
	if !avg {
		return overlap, false
	}
	na, nb := float64(sa.Size(dict)), float64(sb.Size(dict))
	if na == 0 || nb == 0 {
		return 0, true
	}
	return overlap / (na * nb), false
}

// Factors is unit over every pair of a fixed list of one aggregate
// function's snippets, for the likelihood search of Appendix A: it
// re-evaluates the whole Gram matrix under hundreds of length-scale
// candidates, and a candidate usually moves one ℓ. Construction resolves
// every range, domain and dictionary size once and computes every
// categorical factor; each numeric dimension keeps one factor per distinct
// (range, range) input among the pairs and recomputes them only when its ℓ
// changes. A dimension most snippets leave unconstrained resolves them all
// to the domain, so its table is a few entries, not n(n+1)/2.
//
// Pair (i, j), i ≤ j, is unit(snips[i], snips[j]), which resolves both
// ranges, the ℓ fallback and the dictionary sizes against snips[i].Table.
// A list may hold snippets bound to different tables (records on both
// sides of a sample rebuild), so ranges are keyed by (snippet, table of
// the pair's first snippet), not by snippet alone.
//
// Every value is bit-equal to unit's: the same factors from the same
// inputs, multiplied in the same order. Not safe for concurrent use.
type Factors struct {
	avg  bool
	of   []int          // of[i]: index into dims of snips[i].Table
	dims [][]dimFactors // per distinct table: the factor tables of the pairs whose first snippet is on it
	dead []bool         // per packed pair: a catFactor is dead
}

// dimFactors is one dimension's distinct factor values and, per packed
// pair, which of them the pair multiplies in. A table's list runs in
// schema order and leaves out categorical dimensions with an empty
// dictionary, as unit skips them.
type dimFactors struct {
	vals []float64
	at   []int32 // per packed pair whose first snippet is on the table: index into vals
	// Numeric dimensions only: the distinct inputs behind vals, the
	// column, the ℓ fallback, and the ℓ vals were computed under.
	numeric  bool
	keys     [][2]query.NumRange
	col      int
	fallback float64
	ell      float64
	ready    bool
}

// NewFactors resolves every pair of snips, which must all be of one
// aggregate kind. The list must not change while the Factors is in use.
func NewFactors(snips []*query.Snippet) *Factors {
	n := len(snips)
	f := &Factors{of: make([]int, n), dead: make([]bool, n*(n+1)/2)}
	var tables []*storage.Table
	for i, s := range snips {
		if s.Kind != snips[0].Kind {
			panic("kernel: Factors over snippets of different aggregate kinds")
		}
		ti := slices.Index(tables, s.Table)
		if ti < 0 {
			ti = len(tables)
			tables = append(tables, s.Table)
		}
		f.of[i] = ti
	}
	if n > 0 {
		f.avg = snips[0].Kind == query.AvgAgg
	}
	f.dims = make([][]dimFactors, len(tables))
	for ti, t := range tables {
		f.dims[ti] = f.tableDims(ti, t, snips)
	}
	return f
}

// tableDims builds the factor tables of the pairs whose first snippet is
// on tables[ti] = t, resolving every snippet's region against t.
func (f *Factors) tableDims(ti int, t *storage.Table, snips []*query.Snippet) []dimFactors {
	var dims []dimFactors
	ids := make([]int32, len(snips))
	for _, col := range t.Schema().DimensionCols() {
		if t.Schema().Col(col).Kind == storage.Numeric {
			ranges := distinct(snips, ids, func(s *query.Snippet) ([2]uint64, query.NumRange) {
				r := s.Region.NumRangeOf(col, t)
				return [2]uint64{math.Float64bits(r.Lo), math.Float64bits(r.Hi)}, r
			})
			d := dimFactors{numeric: true, col: col, fallback: fallbackEll(t, col)}
			d.at = f.indexPairs(ti, ids, len(ranges), func(a, b int32) {
				d.keys = append(d.keys, [2]query.NumRange{ranges[a], ranges[b]})
			})
			d.vals = make([]float64, len(d.keys))
			dims = append(dims, d)
			continue
		}
		dict := t.DictOf(col).Size()
		if dict == 0 {
			continue
		}
		sets := distinct(snips, ids, func(s *query.Snippet) (string, query.CatSet) {
			cs := s.Region.CatSetOf(col)
			return catKey(cs), cs
		})
		var d dimFactors
		var dead []bool
		d.at = f.indexPairs(ti, ids, len(sets), func(a, b int32) {
			v, dv := catFactor(f.avg, sets[a], sets[b], dict)
			d.vals = append(d.vals, v)
			dead = append(dead, dv)
		})
		for p, j := 0, 0; j < len(f.of); j++ {
			for i := 0; i <= j; i, p = i+1, p+1 {
				if f.of[i] == ti && dead[d.at[p]] {
					f.dead[p] = true
				}
			}
		}
		dims = append(dims, d)
	}
	return dims
}

// distinct numbers each snippet's input among the distinct ones, in
// first-seen order, writing the numbers to ids and returning the inputs;
// in gives a snippet's input and the key it is compared by.
func distinct[K comparable, V any](snips []*query.Snippet, ids []int32, in func(*query.Snippet) (K, V)) []V {
	var vals []V
	seen := make(map[K]int32)
	for j, s := range snips {
		k, v := in(s)
		id, ok := seen[k]
		if !ok {
			id = int32(len(vals))
			seen[k] = id
			vals = append(vals, v)
		}
		ids[j] = id
	}
	return vals
}

// indexPairs maps every packed pair (i, j) whose first snippet is on
// tables[ti] to the index of its distinct (ids[i], ids[j]) input, the ids
// numbering each snippet's input among k distinct ones; add is called
// once per new input pair, in first-seen order.
func (f *Factors) indexPairs(ti int, ids []int32, k int, add func(a, b int32)) []int32 {
	at := make([]int32, len(f.dead))
	grid := make([]int32, k*k)
	for g := range grid {
		grid[g] = -1
	}
	next := int32(0)
	for p, j := 0, 0; j < len(f.of); j++ {
		for i := 0; i <= j; i, p = i+1, p+1 {
			if f.of[i] != ti {
				continue
			}
			g := int(ids[i])*k + int(ids[j])
			if grid[g] < 0 {
				grid[g] = next
				next++
				add(ids[i], ids[j])
			}
			at[p] = grid[g]
		}
	}
	return at
}

// catKey identifies a categorical set: universal (nil codes) and empty
// sets are distinct.
func catKey(cs query.CatSet) string {
	if cs.Universal() {
		return "*"
	}
	b := make([]byte, 1, 1+4*len(cs.Codes))
	for _, c := range cs.Codes {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	return string(b)
}

// Gram writes every pair's unit covariance under ells into dst, the packed
// lower triangle: unit(snips[i], snips[j], ells), i ≤ j, at j(j+1)/2 + i.
// Only the numeric dimensions whose ℓ changed since the last call
// recompute their factors.
func (f *Factors) Gram(ells map[int]float64, dst []float64) {
	for _, dims := range f.dims {
		for k := range dims {
			dims[k].refresh(f.avg, ells)
		}
	}
	for p, j := 0, 0; j < len(f.of); j++ {
		for i := 0; i <= j; i, p = i+1, p+1 {
			if f.dead[p] {
				dst[p] = 0
				continue
			}
			dims := f.dims[f.of[i]]
			cov := 1.0
			for k := range dims {
				cov *= dims[k].vals[dims[k].at[p]]
				if cov == 0 {
					cov = 0 // unit's early return: +0, never −0
					break
				}
			}
			dst[p] = cov
		}
	}
}

// refresh recomputes a numeric dimension's factors when its ℓ under ells
// differs from the one they hold; categorical dimensions never change.
func (d *dimFactors) refresh(avg bool, ells map[int]float64) {
	if !d.numeric {
		return
	}
	ell, ok := ellOf(ells, d.col)
	if !ok {
		ell = d.fallback
	}
	if d.ready && math.Float64bits(ell) == math.Float64bits(d.ell) {
		return
	}
	for u, k := range d.keys {
		d.vals[u] = numFactor(avg, k[0], k[1], ell)
	}
	d.ell, d.ready = ell, true
}
