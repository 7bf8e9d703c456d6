// Covariance memoization for standing queries. A continuous query
// re-infers its improved estimate on every notify batch, and the dominant
// cost per model entry is the per-dimension squared-exponential integrals
// — pure functions of (lo_a, hi_a, lo_b, hi_b, l). Under appends those
// five floats are unchanged (regions re-bind to bit-equal bounds, training
// hasn't moved the length-scales), so a standing plan can carry one
// PairMemo per (entry, target) pair and skip the erf/exp work entirely.
//
// Bit-identity is by construction, not by tolerance: the memo caches the
// *individual dimension factors*, never the finished product, and
// CovarianceMemo runs the one multiply sequence Covariance itself runs
// (unit: factors left to right, σ² last). A cached factor is only reused when all five inputs compare
// equal (==), in which case a recomputation would return the same bits —
// SqExp*Integral is deterministic. The signature check is the entire
// correctness argument; no invalidation bookkeeping exists to get wrong:
// trained length-scales, domain growth on unconstrained dimensions, or a
// re-bound region all change some input float and miss the cache.
package kernel

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/storage"
)

// dimFactor is one numeric dimension's cached integral factor with the
// five inputs that produced it.
type dimFactor struct {
	aLo, aHi, bLo, bHi, ell float64
	val                     float64
	set                     bool
}

// PairMemo caches the numeric-dimension integral factors of one snippet
// pair's covariance across repeated evaluations. The zero value is ready
// to use. Not safe for concurrent use.
type PairMemo struct {
	dims []dimFactor
}

// CovarianceMemo is Covariance with an optional factor cache; m == nil
// degrades to the uncached computation. The result is bit-identical to
// Covariance(a, b, p) in all cases.
func CovarianceMemo(a, b *query.Snippet, p Params, m *PairMemo) float64 {
	return p.Sigma2 * unit(a, b, p.Ells, m)
}

// unit is the one definition of the covariance product: the σ²=1
// covariance of two snippets' exact answers, dimension factors multiplied
// left to right in schema order. Besides the snippets it reads the
// length-scales, each numeric dimension's table domain (unconstrained
// ranges and missing length-scales resolve to it) and each categorical
// dimension's dictionary size — the inputs a cached unit value must be
// keyed by.
func unit(a, b *query.Snippet, ells map[int]float64, m *PairMemo) float64 {
	t := a.Table
	dims := t.Schema().DimensionCols()
	if m != nil && len(m.dims) != len(dims) {
		m.dims = make([]dimFactor, len(dims))
	}
	cov := 1.0
	for di, col := range dims {
		def := t.Schema().Col(col)
		if def.Kind == storage.Numeric {
			ra := a.Region.NumRangeOf(col, t)
			rb := b.Region.NumRangeOf(col, t)
			ell, ok := ells[col]
			if !ok || ell <= 0 {
				lo, hi := t.Domain(col)
				ell = math.Max(hi-lo, 1)
			}
			if m != nil {
				d := &m.dims[di]
				if !d.set || d.aLo != ra.Lo || d.aHi != ra.Hi ||
					d.bLo != rb.Lo || d.bHi != rb.Hi || d.ell != ell {
					if a.Kind == query.AvgAgg {
						d.val = mathx.SqExpMeanIntegral(ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell)
					} else {
						d.val = mathx.SqExpDoubleIntegral(ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell)
					}
					d.aLo, d.aHi, d.bLo, d.bHi, d.ell = ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell
					d.set = true
				}
				cov *= d.val
			} else if a.Kind == query.AvgAgg {
				cov *= mathx.SqExpMeanIntegral(ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell)
			} else {
				cov *= mathx.SqExpDoubleIntegral(ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell)
			}
		} else {
			dict := t.DictOf(col).Size()
			if dict == 0 {
				continue
			}
			sa := a.Region.CatSetOf(col)
			sb := b.Region.CatSetOf(col)
			overlap := float64(sa.OverlapCount(sb, dict))
			if a.Kind == query.AvgAgg {
				na, nb := float64(sa.Size(dict)), float64(sb.Size(dict))
				if na == 0 || nb == 0 {
					return 0
				}
				cov *= overlap / (na * nb)
			} else {
				cov *= overlap
			}
		}
		if cov == 0 {
			return 0
		}
	}
	return cov
}
