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

import "repro/internal/query"

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

// factor is numFactor(avg, ra, rb, ell), recomputed only when one of the
// five floats differs from the cached call's.
func (d *dimFactor) factor(avg bool, ra, rb query.NumRange, ell float64) float64 {
	if !d.set || d.aLo != ra.Lo || d.aHi != ra.Hi ||
		d.bLo != rb.Lo || d.bHi != rb.Hi || d.ell != ell {
		d.val = numFactor(avg, ra, rb, ell)
		d.aLo, d.aHi, d.bLo, d.bHi, d.ell = ra.Lo, ra.Hi, rb.Lo, rb.Hi, ell
		d.set = true
	}
	return d.val
}

// CovarianceMemo is Covariance with an optional factor cache; m == nil
// degrades to the uncached computation. The result is bit-identical to
// Covariance(a, b, p) in all cases.
func CovarianceMemo(a, b *query.Snippet, p Params, m *PairMemo) float64 {
	return p.Sigma2 * unit(a, b, p.Ells, m)
}
