package core

import (
	"math"
	"sync/atomic"

	"repro/internal/aqp"
	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// Drift summarizes how one aggregate function's values differ between the
// old relation r and appended tuples r^a (Appendix D: the random variable
// s_k with mean μ_k and variance η²_k).
type Drift struct {
	Mu   float64 // E[s_k]
	Eta2 float64 // Var(s_k)
}

// driftBuckets is how many query regions the serving path's drift
// estimate compares.
const driftBuckets = 20

// EstimateDrift estimates (μ_k, η²_k) for one measure function by
// comparing bucketed means of the old and appended relations — the "small
// samples of r and r^a" Appendix D prescribes. Buckets follow the first
// numeric dimension attribute's value (falling back to random assignment
// when there is none), so η² captures how unevenly the appended data
// drifts *across query regions* — the dispersion that makes Lemma 3's
// inflated error bounds valid in Figure 12's experiment.
func EstimateDrift(old, appended *storage.Table, measure func(*storage.Table, int) float64, buckets int, seed int64) Drift {
	d, _, _ := estimateDrift([]*storage.Table{old}, 0, nil, appended, measure, buckets, seed)
	return d
}

// estimateDrift is EstimateDrift with the old relation given as pieces (in
// order) of sample generation gen. When carry — the old-side moments a
// previous call returned — still describes a prefix of those pieces, only
// the rows past it are bucketed; the fold is the same left fold in row
// order either way, so the estimate carries the same bits as a fresh pass.
// It returns the drift, the moments to hand the next call (nil on the
// random-assignment path, which has nothing to carry), and how many old
// rows it bucketed.
func estimateDrift(old []*storage.Table, gen uint64, carry *driftMoments, appended *storage.Table,
	measure func(*storage.Table, int) float64, buckets int, seed int64) (Drift, *driftMoments, int) {
	if buckets < 2 {
		buckets = 2
	}
	rng := randx.New(seed)
	m := newDriftMoments(old, buckets)
	m.gen = gen
	if carry.continues(m, old) {
		m = carry
	}
	before := m.rows
	m.fold(old, measure, rng)
	oldMeans := m.means()
	batch := []*storage.Table{appended}
	app := newDriftMoments(batch, buckets)
	app.fold(batch, measure, rng)
	bucketed := m.rows - before
	if m.dimCol < 0 {
		m = nil
	}
	return driftBetween(oldMeans, app.means()), m, bucketed
}

// driftBetween turns per-bucket means of r and r^a into (μ_k, η²_k): the
// mean and sample variance of the bucket-wise differences, over buckets
// both sides populate.
func driftBetween(oldMeans, newMeans []float64) Drift {
	var diffs []float64
	for i := range oldMeans {
		if !math.IsNaN(oldMeans[i]) && !math.IsNaN(newMeans[i]) {
			diffs = append(diffs, newMeans[i]-oldMeans[i])
		}
	}
	if len(diffs) == 0 {
		return Drift{}
	}
	mean := 0.0
	for _, d := range diffs {
		mean += d
	}
	mean /= float64(len(diffs))
	variance := 0.0
	for _, d := range diffs {
		variance += (d - mean) * (d - mean)
	}
	if len(diffs) > 1 {
		variance /= float64(len(diffs) - 1)
	}
	return Drift{Mu: mean, Eta2: variance}
}

// driftMoments is one side's bucketing pass: per-bucket measure sums and
// counts over the first rows rows of a sequence of tables. Along a numeric
// dimension the pass is a left fold in row order, so moments over rows
// [0, k) extended by rows [k, n) hold the same bits as a fresh pass over
// [0, n). That is what lets an AVG model carry its old-sample moments from
// one append to the next: within a sample generation the sample only grows
// at its tail.
type driftMoments struct {
	gen    uint64 // sample generation of the folded rows
	dimCol int    // bucketing column; -1 → random assignment
	lo, hi float64
	sums   []float64
	counts []int
	rows   int // rows folded, counted across the tables in order
}

// newDriftMoments starts an empty pass over parts. It prefers bucketing
// along the first numeric dimension whose domain over all of parts is not
// degenerate: the drift that threatens Verdict's bounds is the one that
// varies with the selection regions queries actually use.
func newDriftMoments(parts []*storage.Table, buckets int) *driftMoments {
	m := &driftMoments{dimCol: -1, sums: make([]float64, buckets), counts: make([]int, buckets)}
	schema := parts[0].Schema()
	for _, col := range schema.DimensionCols() {
		if schema.Col(col).Kind == storage.Numeric {
			if l, h, _ := storage.ConcatDomain(parts, col); h > l {
				m.dimCol, m.lo, m.hi = col, l, h
				break
			}
		}
	}
	return m
}

// continues reports whether carried moments c may be extended over parts in
// place of the fresh pass m: same generation, dimension, domain and bucket
// count, and no more rows folded than parts hold. Anything else — a
// rebuild, a domain an append widened, a restored synopsis with no carry —
// starts over, and starting over is the full pass.
func (c *driftMoments) continues(m *driftMoments, parts []*storage.Table) bool {
	if c == nil || c.gen != m.gen || c.dimCol != m.dimCol || c.lo != m.lo || c.hi != m.hi || len(c.sums) != len(m.sums) {
		return false
	}
	rows := 0
	for _, p := range parts {
		rows += p.Rows()
	}
	return c.rows <= rows
}

// fold buckets every row of parts past the m.rows already folded: by the
// dimension's value, or — with no dimension — by draws from rng, one per
// row.
func (m *driftMoments) fold(parts []*storage.Table, measure func(*storage.Table, int) float64, rng *randx.Source) {
	buckets := len(m.sums)
	skip := m.rows
	for _, t := range parts {
		n := t.Rows()
		if skip >= n {
			skip -= n
			continue
		}
		var xs []float64
		if m.dimCol >= 0 {
			xs = t.NumericCol(m.dimCol)
		}
		for row := skip; row < n; row++ {
			var b int
			if xs != nil {
				b = int((xs[row] - m.lo) / (m.hi - m.lo) * float64(buckets))
				if b < 0 {
					b = 0
				}
				if b >= buckets {
					b = buckets - 1
				}
			} else {
				b = rng.Intn(buckets)
			}
			m.sums[b] += measure(t, row)
			m.counts[b]++
		}
		m.rows += n - skip
		skip = 0
	}
}

// means returns each bucket's mean, NaN for an empty bucket.
func (m *driftMoments) means() []float64 {
	out := make([]float64, len(m.sums))
	for i := range out {
		if m.counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = m.sums[i] / float64(m.counts[i])
		}
	}
	return out
}

// applyAppend adjusts every past snippet of one model for newly appended
// tuples per Lemma 3:
//
//	θ_i  ← θ_i + μ_k·|r^a|/(|r|+|r^a|)
//	β²_i ← β²_i + (|r^a|·η_k/(|r|+|r^a|))²
//
// oldRows and appendedRows are |r| and |r^a|. The covariance factorization
// is invalidated (β changed on the diagonal); the next inference rebuilds
// it from the cached Gram triangle — the pair covariances did not move, so
// no kernel integral is re-evaluated unless the append also widened a
// domain or grew a dictionary. Caller holds m.mu.
func (m *model) applyAppend(drift Drift, oldRows, appendedRows int) {
	m.mutated()
	m.appendDrift = drift
	m.detachEntries() // copy-on-write: published snapshots keep the old θ, β
	ratio := float64(appendedRows) / float64(oldRows+appendedRows)
	eta := math.Sqrt(math.Max(drift.Eta2, 0))
	for i := range m.entries {
		m.entries[i].theta += drift.Mu * ratio
		b2 := m.entries[i].beta*m.entries[i].beta + (ratio*eta)*(ratio*eta)
		m.entries[i].beta = math.Sqrt(b2)
		m.entries[i].obs = kernel.Observation(m.entries[i].sn, m.entries[i].theta)
	}
	m.refreshMoments()
	m.chol = nil
}

// OnAppend is the convenience driver: it estimates drift for every AVG
// model from the old and appended relations and applies Lemma 3's
// adjustment. FREQ models receive only the cardinality-driven adjustment
// (μ=0).
func (v *Verdict) OnAppend(old, appended *storage.Table, seed int64) {
	v.onAppend(old.Rows(), appended.Rows(), func(_ *model, measure func(*storage.Table, int) float64) Drift {
		return EstimateDrift(old, appended, measure, driftBuckets, seed)
	})
}

// OnAppendSampled is OnAppend for the serving path, where the old side is
// the pre-append AQP sample: drift is estimated from that sample and the
// appended batch, while Lemma 3's cardinality ratio uses the true |r|
// (old.BaseRows) and |r^a|. Each AVG model carries its old-sample bucket
// moments from one call to the next (see estimateDrift), so a call buckets
// only the sample rows that landed since the last one — with the same
// result, bit for bit, as re-bucketing the whole sample. It returns how many
// sample rows were bucketed, summed over AVG models.
//
// Drift estimation and adjustment run in parallel across models (each
// model's drift is estimated independently from the same sample pair and
// seed, so the result is deterministic).
func (v *Verdict) OnAppendSampled(old *aqp.Sample, appended *storage.Table, seed int64) (driftRows int) {
	pieces := old.Pieces()
	var rows atomic.Int64
	v.onAppend(old.BaseRows, appended.Rows(), func(m *model, measure func(*storage.Table, int) float64) Drift {
		d, carry, n := estimateDrift(pieces, old.Gen, m.driftCarry, appended, measure, driftBuckets, seed)
		m.driftCarry = carry
		rows.Add(int64(n))
		return d
	})
	return int(rows.Load())
}

// onAppend applies Lemma 3's adjustment to every model holding entries,
// with drift estimated by estimate for AVG models (under the model's mu)
// and zero for FREQ ones.
func (v *Verdict) onAppend(oldRows, appendedRows int, estimate func(m *model, measure func(*storage.Table, int) float64) Drift) {
	forEachModelParallel(v.modelsInOrder(), func(_ int, m *model) {
		if len(m.entries) == 0 {
			return
		}
		var d Drift
		if m.id.Kind == query.AvgAgg {
			if measure := m.entries[0].sn.Measure; measure != nil {
				d = estimate(m, measure)
			}
		}
		m.applyAppend(d, oldRows, appendedRows)
	})
}
