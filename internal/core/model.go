package core

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/storage"
)

// entry is one past snippet in the synopsis: (q_i, θ_i, β_i) plus the
// model-statistic observation derived from it (Appendix F.3).
type entry struct {
	sn     *query.Snippet
	theta  float64 // raw answer θ_i
	beta   float64 // raw expected error β_i
	nugget float64 // finite-population deviation of θ̄_i (ScalarEstimate.PopErr)
	obs    float64 // kernel.Observation(sn, theta): value (AVG) or density (FREQ)
}

// model holds the per-aggregate-function state: the synopsis entries in
// slot order, their recency stamps, the learned correlation parameters, the
// cached unit-σ² Gram triangle and the factorized covariance matrix Σ_n of
// past raw answers.
//
// Slots are not recency. entries[i] is row and column i of Σ_n for as long
// as its snippet stays in the synopsis: a repeat never moves an entry, and
// at the quota C_g a new snippet takes over the slot of the least recently
// used one. Recency lives in stamps (one per slot, bumped from clock), so
// refreshing it touches nothing a reader or the factorization depends on.
//
// Σ_n = σ²·K + diag(β²+nugget²), and K — the pair covariances at σ² = 1 —
// depends only on the regions, the length-scales and the table's domains
// and dictionary sizes. gram caches K's lower triangle under a signature of
// exactly those inputs (gramSig), so the only kernel integrals evaluated
// after a fill are the n of a genuinely new snippet; see ARCHITECTURE.md
// "Synopsis maintenance" for the cost of each kind of mutation.
//
// The factor has an order of its own. Row r of chol is slot order[r]: a
// rebuild factors in slot order (order is the identity), and every edit —
// Extend for a new slot, Replace for a slot whose row changed — takes that
// slot's row out wherever it sits and appends the new one last, in O(n²).
//
// Concurrency discipline: all mutators run under the model's mu and are
// copy-on-write with respect to anything reachable from a
// published inferState — entries are recopied before any in-place edit, the
// Cholesky factor is persistent (Extend, Replace and rebuild all produce
// fresh factors), order is replaced rather than edited, and params handed to
// readers are cloned. stamps and gram are never reachable from an inferState
// and are edited in place. Readers never touch the model; they work from an
// inferState captured via publish.
type model struct {
	// mu serializes the model's mutators and the lazy publish; readers
	// load published without it.
	mu sync.Mutex

	id      query.FuncID
	cfg     Config
	entries []entry        // slot order
	stamps  []uint64       // stamps[i]: clock value when slot i was last recorded
	clock   uint64         // per-model recency clock, bumped by every record
	byKey   map[string]int // snippet key -> slot
	ctr     *counters      // the owning Verdict's lifetime counters

	params      kernel.Params
	paramsFixed bool // set by SetParams: learning must not overwrite

	// gram is the packed lower triangle (row i at i(i+1)/2) of
	// kernel.UnitCovariance(entries[j].sn, entries[i].sn) for j ≤ i, valid
	// while gramSignature still returns gramSig. nil until the first
	// rebuild fills it and after a signature mismatch drops it.
	gram    []float64
	gramSig []float64

	// Trained state: chol factors Σ_n (cov of raw answers: exact-answer
	// covariances plus β² on the diagonal, Eq. 6) with its rows in factor
	// order (order maps factor row → slot). chol is nil whenever a mutation
	// left it stale; publish rebuilds it. builtAt is the slot count at the
	// last from-scratch factorization — the only place σ² is re-estimated —
	// and edits counts the factor edits since: once they reach builtAt the
	// next publish rebuilds instead.
	chol    *linalg.Cholesky
	order   []int
	builtAt int
	edits   int
	// obsMoments tracks the running mean/variance of observations, used
	// for the prior mean μ and the analytic σ² (Appendix F.3).
	obsMoments mathx.Moments

	// driftCarry is the AVG model's old-sample drift moments, carried from
	// one OnAppendSampled to the next so an append buckets only the sample
	// rows new since the last; appendDrift is the estimate behind the last
	// Lemma 3 adjustment.
	driftCarry  *driftMoments
	appendDrift Drift

	// published is the immutable snapshot concurrent Infer calls load
	// without mu; every mutator that changes what inference reads nils it
	// and publish rebuilds it lazily (preserving the lazy-retrain behaviour
	// record-heavy offline loops rely on).
	published atomic.Pointer[inferState]
}

// inferState is everything one inference reads, frozen at publication. The
// entries slice is never modified in place after publication (mutators copy
// first) and the factor/params are private to the snapshot, so any number
// of goroutines may infer against it without synchronization.
type inferState struct {
	entries []entry
	params  kernel.Params
	chol    *linalg.Cholesky
	order   []int     // factor row → slot
	r       []float64 // L⁻¹(θ − μ), in factor order
	mu      float64
}

// newInferState freezes one snapshot. The residual half of Eq. 11,
// r = L⁻¹(θ_n − μ_n), is the same for every snippet inferred against it, so
// it is solved once here; each inference then needs one forward substitution
// (see inferOn). A nil chol publishes raw passthrough.
func newInferState(entries []entry, params kernel.Params, chol *linalg.Cholesky, order []int, mu float64) *inferState {
	st := &inferState{entries: entries, params: params, mu: mu}
	if chol == nil {
		return st
	}
	r := make([]float64, len(order))
	for row, slot := range order {
		e := &entries[slot]
		r[row] = e.theta - kernel.PriorMean(e.sn, mu)
	}
	if chol.ForwardInPlace(r) != nil {
		return st // order and factor disagree: raw passthrough
	}
	st.chol, st.order, st.r = chol, order, r
	return st
}

// publish returns the current immutable inference snapshot, rebuilding the
// factorization first if a mutation invalidated it (Algorithm 1's lazy
// retrain). Caller holds m.mu.
func (m *model) publish() *inferState {
	if st := m.published.Load(); st != nil {
		return st
	}
	// A failed rebuild (degenerate Σ) publishes with a nil factor: readers
	// fall back to raw answers, matching the single-threaded behaviour.
	_ = m.ensureTrained()
	st := newInferState(m.entries, m.params.Clone(), m.chol, m.order, m.priorMean())
	m.published.Store(st)
	return st
}

// mutated invalidates the published snapshot after any state change.
func (m *model) mutated() { m.published.Store(nil) }

// detachEntries gives the model a private copy of its entries slice so
// in-place edits cannot reach a published inferState. O(n) with n ≤ C_g;
// every caller goes on to edit or drop the factor, O(n²) or worse.
func (m *model) detachEntries() {
	m.entries = append([]entry(nil), m.entries...)
}

func newModel(id query.FuncID, cfg Config, params kernel.Params, ctr *counters) *model {
	return &model{
		id:     id,
		cfg:    cfg,
		byKey:  make(map[string]int),
		ctr:    ctr,
		params: params,
	}
}

// priorMean returns the prior mean statistic (mean of observations; zero
// when the synopsis is empty).
func (m *model) priorMean() float64 { return m.obsMoments.Mean() }

// sigma2Analytic estimates σ²_g by moment matching: Appendix F.3 equates
// σ²_g with the variance of ν_g, estimated from the spread of past
// answers. Because the kernel's per-snippet self-factor s_i (the product of
// Eq. 10's integrals and Eq. 16's overlap counts at i=j, with σ²=1) differs
// across snippets — and, for FREQ with several categorical dimensions, can
// be far from the naive density-variance scaling — we solve for the σ²
// that makes the model's prior variances match the observed squared
// residuals: σ² = Σ((θ_i−m_i)² − β_i²)⁺ / Σ s_i. The residuals subtract
// the sampling noise β² so σ² reflects the underlying spread only.
func (m *model) sigma2Analytic(p kernel.Params) float64 {
	return sigma2For(m.entries, m.priorMean(), p)
}

func sigma2For(entries []entry, mu float64, p kernel.Params) float64 {
	return sigma2From(entries, mu, func(i int) float64 {
		return kernel.UnitCovariance(entries[i].sn, entries[i].sn, p.Ells)
	})
}

// sigma2From is the moment-matching estimate with the self-factors s_i
// supplied by the caller: fresh kernel calls (sigma2For) or the Gram
// diagonal (rebuild) — the same numbers either way.
func sigma2From(entries []entry, mu float64, selfUnit func(i int) float64) float64 {
	if len(entries) == 0 {
		return 1e-12
	}
	var num, den, scaleAcc float64
	for i, e := range entries {
		r := e.theta - kernel.PriorMean(e.sn, mu)
		r2 := r*r - e.beta*e.beta - e.nugget*e.nugget
		if r2 > 0 {
			num += r2
		}
		den += selfUnit(i)
		scaleAcc += math.Abs(e.theta)
	}
	if den <= 0 {
		return 1e-12
	}
	if num <= 0 {
		// Degenerate synopsis (e.g. one exact answer): a small positive
		// prior variance keeps Σ well-conditioned without claiming
		// certainty.
		scale := scaleAcc / float64(len(entries))
		if scale == 0 {
			scale = 1
		}
		return scale * scale * 1e-4 * float64(len(entries)) / den
	}
	return num / den
}

// record inserts or refreshes a snippet answer, maintaining the LRU quota
// C_g. Three cases, by what they leave for the next publish:
//
//   - a repeat whose error did not improve bumps the slot's recency stamp
//     and returns — nothing inference reads changed, so the published
//     snapshot and the factor stay;
//   - a repeat that improved changes one diagonal term of Σ_n: the Gram
//     triangle is untouched and the slot's row is replaced in the factor;
//   - a new snippet evaluates its n unit covariances once. Below the quota
//     they become a new Gram row and extend the factor; at the quota the
//     snippet takes the least recently used slot, that one Gram row/column
//     is overwritten and the slot's row is replaced in the factor.
//
// Either factor edit is O(n²) (Lemma 2); see editFactor for when the factor
// is dropped for a from-scratch rebuild instead.
func (m *model) record(sn *query.Snippet, est query.ScalarEstimate) {
	m.clock++
	key := sn.Key()
	if i, ok := m.byKey[key]; ok {
		m.stamps[i] = m.clock
		if !(est.StdErr < m.entries[i].beta) {
			m.ctr.noopRepeats.Add(1)
			return
		}
		// Keep the lower-error answer. Copy-on-write before the in-place
		// refresh; K is unchanged, only θ_i and Σ_ii moved.
		m.mutated()
		m.detachEntries()
		e := &m.entries[i]
		e.theta, e.beta, e.nugget = est.Value, est.StdErr, est.PopErr
		e.obs = kernel.Observation(sn, est.Value)
		m.refreshMoments()
		m.checkGram(sn.Table)
		m.editFactor(i)
		return
	}

	m.mutated()
	e := entry{sn: sn, theta: est.Value, beta: est.StdErr, nugget: est.PopErr,
		obs: kernel.Observation(sn, est.Value)}
	// The new row must be computed under the inputs the cached rows were;
	// if the table or the length-scales moved since, start over.
	m.checkGram(sn.Table)
	n := len(m.entries)
	if n >= m.cfg.SynopsisCap {
		v := m.lruSlot()
		m.detachEntries()
		delete(m.byKey, m.entries[v].sn.Key())
		m.entries[v] = e
		m.stamps[v] = m.clock
		m.byKey[key] = v
		if m.gram != nil {
			m.fillGramSlot(v)
		}
		m.refreshMoments()
		m.editFactor(v)
		return
	}

	m.byKey[key] = n
	m.entries = append(m.entries, e)
	m.stamps = append(m.stamps, m.clock)
	m.obsMoments.Add(e.obs)
	if m.gram != nil {
		m.gram = append(m.gram, make([]float64, n+1)...)
		m.fillGramSlot(n)
	}
	m.editFactor(n)
}

// editFactor brings the factor up to date after slot's row and column of Σ_n
// changed — a new slot, a new snippet in an evicted slot, or a new diagonal
// term — with one O(n²) edit read off the Gram triangle: Extend when the
// slot has no factor row yet, Replace otherwise. Either way the slot's row
// moves to the end of the factor order.
//
// Edits never re-estimate σ², so they are counted: once the edits since the
// last from-scratch factorization reach builtAt, the factor is dropped and
// the next publish rebuilds it (for a synopsis that only grows, that is a
// rebuild at every doubling). Amortised over the edits in between that is
// still O(n²) per record. The factor is also dropped when there is none to
// edit, at minExtendSlots or fewer slots, and when the edit fails.
func (m *model) editFactor(slot int) {
	m.edits++
	n := len(m.entries)
	if m.chol == nil || m.gram == nil || n <= minExtendSlots || m.edits >= m.builtAt {
		m.chol = nil
		return
	}
	order := make([]int, 0, n)
	p := -1
	for row, s := range m.order {
		if s == slot {
			p = row
		} else {
			order = append(order, s)
		}
	}
	order = append(order, slot)
	b := make([]float64, n-1)
	for row, s := range order[:n-1] {
		b[row] = m.params.Sigma2 * m.gram[triSym(s, slot)]
	}
	e := &m.entries[slot]
	diag := m.params.Sigma2*m.gram[tri(slot, slot)] + e.nugget*e.nugget + e.beta*e.beta
	var c *linalg.Cholesky
	var err error
	if p < 0 {
		c, err = m.chol.Extend(b, diag)
	} else {
		c, err = m.chol.Replace(p, b, diag)
	}
	if err != nil {
		m.chol = nil
		return
	}
	m.chol, m.order = c, order
	m.ctr.factorEdits.Add(1)
}

// minExtendSlots is the synopsis size up to which record never edits the
// factor: with a handful of snippets the moment-matched σ² moves by orders
// of magnitude from one record to the next (one or two snippets give the
// degenerate fallback), and a from-scratch factorization costs nothing.
const minExtendSlots = 8

// lruSlot returns the slot with the oldest recency stamp. Stamps are unique
// (one clock tick per record), so the victim is the head of the LRU order.
func (m *model) lruSlot() int {
	v := 0
	for i, s := range m.stamps {
		if s < m.stamps[v] {
			v = i
		}
	}
	return v
}

// byRecency returns a copy of the entries least recently used first — the
// order learning's LearnCap window and the snapshot file are defined in.
func (m *model) byRecency() []entry {
	idx := make([]int, len(m.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return m.stamps[idx[a]] < m.stamps[idx[b]] })
	out := make([]entry, len(idx))
	for i, slot := range idx {
		out[i] = m.entries[slot]
	}
	return out
}

func (m *model) refreshMoments() {
	var mm mathx.Moments
	for _, e := range m.entries {
		mm.Add(e.obs)
	}
	m.obsMoments = mm
}

// tri indexes the packed lower triangle: element (i, j), j ≤ i.
func tri(i, j int) int { return i*(i+1)/2 + j }

// triSym indexes the packed triangle of a symmetric matrix in either order.
func triSym(i, j int) int {
	if j > i {
		i, j = j, i
	}
	return tri(i, j)
}

// gramSignature lists, in schema order, everything kernel.UnitCovariance
// reads besides the two snippets: per numeric dimension the length-scale
// (0 when absent: the kernel then derives it from the domain) and the
// table domain, per categorical dimension the dictionary size. Two equal
// signatures mean every cached unit value is what a fresh call would
// return; that equality is the cache's whole invalidation protocol.
func gramSignature(t *storage.Table, ells map[int]float64) []float64 {
	dims := t.Schema().DimensionCols()
	sig := make([]float64, 0, 3*len(dims))
	for _, col := range dims {
		if t.Schema().Col(col).Kind == storage.Numeric {
			lo, hi := t.Domain(col)
			sig = append(sig, ells[col], lo, hi)
		} else {
			sig = append(sig, float64(t.DictOf(col).Size()))
		}
	}
	return sig
}

// checkGram returns the current signature and, if the cached triangle was
// filled under a different one (Train, SetParams, a domain-widening or
// dictionary-growing append), discards it together with the factor
// assembled from it; the next rebuild recomputes both in full.
func (m *model) checkGram(t *storage.Table) []float64 {
	sig := gramSignature(t, m.params.Ells)
	if m.gram != nil && !slices.Equal(m.gramSig, sig) {
		m.gram, m.gramSig, m.chol = nil, nil, nil
		m.ctr.gramRebuilds.Add(1)
	}
	return sig
}

// fillGramRow evaluates row i of the triangle, lower slot first.
func (m *model) fillGramRow(i int) {
	sn := m.entries[i].sn
	for j := 0; j <= i; j++ {
		m.gram[tri(i, j)] = kernel.UnitCovariance(m.entries[j].sn, sn, m.params.Ells)
	}
}

// fillGramSlot evaluates row and column v of the Gram triangle: the
// len(entries) kernel integrals one new snippet costs.
func (m *model) fillGramSlot(v int) {
	m.fillGramRow(v)
	sn := m.entries[v].sn
	for i := v + 1; i < len(m.entries); i++ {
		m.gram[tri(i, v)] = kernel.UnitCovariance(sn, m.entries[i].sn, m.params.Ells)
	}
	m.ctr.kernelCalls.Add(int64(len(m.entries)))
}

// ensureGram makes the Gram triangle valid for the current entries, table
// and length-scales, recomputing it in full if it is absent or stale.
func (m *model) ensureGram() {
	sig := m.checkGram(m.entries[0].sn.Table)
	if m.gram != nil {
		return
	}
	m.gram = make([]float64, tri(len(m.entries), 0))
	for i := range m.entries {
		m.fillGramRow(i)
	}
	m.gramSig = sig
	m.ctr.kernelCalls.Add(int64(len(m.gram)))
}

// rebuild factorizes Σ_n from scratch (Algorithm 1's offline covariance
// precomputation): refresh the moment-matched σ² (unless the parameters
// were pinned by SetParams), assemble σ²·K + diag(β²+nugget²) from the Gram
// triangle in O(n²), factorize. An empty synopsis clears the factor.
func (m *model) rebuild() error {
	n := len(m.entries)
	m.chol, m.order, m.builtAt, m.edits = nil, nil, n, 0
	if n == 0 {
		return nil
	}
	m.ensureGram()
	if !m.paramsFixed {
		m.params.Sigma2 = sigma2From(m.entries, m.priorMean(), func(i int) float64 { return m.gram[tri(i, i)] })
	}
	// NewCholesky reads the lower triangle only.
	s := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := m.gram[tri(i, 0) : tri(i, 0)+i+1]
		for j, u := range row {
			c := m.params.Sigma2 * u
			if i == j {
				e := &m.entries[i]
				c += e.beta*e.beta + e.nugget*e.nugget
			}
			s.Set(i, j, c)
		}
	}
	m.ctr.refactorizations.Add(1)
	c, err := linalg.NewCholesky(s)
	if err != nil {
		return err
	}
	m.chol, m.order = c, make([]int, n)
	for i := range m.order {
		m.order[i] = i
	}
	return nil
}

// ensureTrained rebuilds the factorization if invalidated.
func (m *model) ensureTrained() error {
	if m.chol == nil || m.chol.Size() != len(m.entries) {
		return m.rebuild()
	}
	return nil
}

// footprintBytes approximates the synopsis memory footprint of this model:
// parsed snippets, answers, the Gram triangle and the factorized covariance
// (§8.5's measurement).
func (m *model) footprintBytes() int {
	n := len(m.entries)
	perEntry := 200 // snippet struct, region maps, key string
	return n*perEntry + n*n*8 + len(m.gram)*8
}
