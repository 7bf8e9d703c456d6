package aqp

import (
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
)

// Progressive (resumable) online aggregation. OnlineAggregate walks the
// sample in fixed batches and re-estimates after each one, but its work is
// tied to one callback-driven pass. ProgressiveScan restructures the
// vectorized pipeline into an increment-yielding form the serving layer can
// drive: the caller asks for growing prefix budgets (typically the doubling
// PrefixSchedule), and the scan carries its per-unit moment partials across
// increments, so emitting k increments over an n-row sample costs O(n) —
// not O(n·k) — while every emitted estimate is float-identical to a fresh
// scan of the same prefix.
//
// The identity holds because the vectorized scan's merge tree is a fixed
// function of the scanned range: blocks partition into unitBlocks-sized
// work units and per-unit partials merge in unit order (scan.go). A prefix
// [0, P) therefore folds as (unit 0, unit 1, …, unit k-1, tail), where the
// first k = P/unitRows units are complete and independent of P. The
// resumable scan folds complete units into its carried accumulators exactly
// once, and evaluates the (at most one-unit-sized) partial tail into a
// private copy at each emission — the same fold sequence, hence the same
// floating-point result, as a fresh View scan of [0, P). Replays via
// Engine.ViewAtGen + View.EvalPrefix exploit this to audit any streamed
// increment bit-for-bit after the fact.

// unitRows is the row span of one complete work unit — the granule at which
// the resumable scan folds finished partials into its carried accumulators.
const unitRows = unitBlocks * storage.BlockSize

// DefaultFirstPrefix is the first row budget of a default progressive
// schedule: one storage block.
const DefaultFirstPrefix = storage.BlockSize

// PrefixSchedule returns the doubling prefix budgets progressive queries
// use by default: first, 2·first, 4·first, …, ending with exactly total.
// Doubling keeps the increment count logarithmic while the standard error
// shrinks by ≈ 1/√2 per emitted increment. first <= 0 selects
// DefaultFirstPrefix; a total of zero yields a single empty increment.
func PrefixSchedule(total, first int) []int {
	if total <= 0 {
		return []int{0}
	}
	if first <= 0 {
		first = DefaultFirstPrefix
	}
	var out []int
	for p := first; p < total; p *= 2 {
		out = append(out, p)
	}
	return append(out, total)
}

// Increment is one progressive answer: the current estimates after some
// prefix of the sample, plus enough provenance to replay it later.
type Increment struct {
	// Estimates holds the per-snippet raw answers; Valid[i] is false while
	// snippet i has no usable estimate yet.
	Estimates []query.ScalarEstimate
	Valid     []bool
	// Rows is the sample prefix [0, Rows) this increment reflects; Total is
	// the view's full sample size.
	Rows  int
	Total int
	// SimTime is the simulated AQP latency of scanning the prefix.
	SimTime time.Duration
	// Seq counts emitted increments (0-based); Final marks the increment
	// that consumed the whole sample.
	Seq   int
	Final bool
}

// ProgressiveScan evaluates snippets over growing prefixes of one pinned
// view's sample. It is single-caller state (drive it from one goroutine);
// the underlying view is immutable, so appends and sample rebuilds landing
// mid-stream never affect the increments it emits.
type ProgressiveScan struct {
	view    *View
	metas   []snipMeta
	gs      *groupedScan // grouped factoring of the snippet list, if any
	workers int          // worker cap for unit folds; 0 = GOMAXPROCS
	emitted int          // last emitted prefix
	scanned int          // sample rows read so far, re-covered tails included
	seq     int

	// banks is the carry state: one accumulator bank per piece of the
	// sample — each micro-stratum, then the unpartitioned tail last; a flat
	// sample is the single bank over Sample.Data. Each bank folds its own
	// per-piece prefix; emission merges the banks into fresh accumulators in
	// piece order (the scatter-gather barrier EvalPrefix replays).
	banks  []*stratumScan
	counts []int // targets scratch
}

// stratumScan is one sample piece's carried fold within a progressive scan.
type stratumScan struct {
	tbl    *storage.Table
	accs   []*accumulator
	folded int // rows folded into accs (unit-aligned)
}

// Progressive starts a resumable evaluation of the snippets against this
// view's sample. Drive it with Step, typically over PrefixSchedule budgets.
// A grouped snippet list factors into the one-pass bank kernel; the
// per-unit partials it yields are bit-identical to the per-snippet ones, so
// the carried fold state — and hence every emitted increment — is
// unchanged.
func (v *View) Progressive(snips []*query.Snippet) *ProgressiveScan {
	accs := newAccs(v, snips)
	ps := &ProgressiveScan{view: v, metas: metaOf(accs), gs: factorAccs(accs)}
	for _, tbl := range v.Sample.Pieces() {
		ps.banks = append(ps.banks, &stratumScan{tbl: tbl, accs: freshAccs(accs)})
	}
	return ps
}

// targets returns, per bank, how many of its rows fall inside the global
// prefix [0, rows).
func (p *ProgressiveScan) targets(rows int) []int {
	parts := p.view.Sample.Parts
	if parts == nil {
		p.counts = append(p.counts[:0], rows)
		return p.counts
	}
	p.counts = append(parts.PrefixCounts(rows, p.counts)[:parts.NumStrata()], max(rows-parts.Rows(), 0))
	return p.counts
}

// advance folds the complete work units of bank b's prefix [0, target) it
// has not folded yet into its carried accumulators, in unit order.
func (p *ProgressiveScan) advance(b *stratumScan, target int) {
	fullUnits, doneUnits := target/unitRows, b.folded/unitRows
	if fullUnits <= doneUnits {
		return
	}
	for _, part := range scanUnits(p.metas, p.gs, appendUnits(nil, b.tbl, 0, target)[doneUnits:fullUnits], p.workers) {
		merge(b.accs, part)
	}
	b.folded = fullUnits * unitRows
}

// stepBank advances one bank's carried fold to its prefix [0, target) and
// returns the accumulators reflecting exactly that prefix — the carried
// bank when target is unit-aligned, else a private clone with the partial
// tail unit folded in, so the carry stays unit-aligned and a later step can
// re-cover the grown tail from scratch.
func (p *ProgressiveScan) stepBank(b *stratumScan, target int) []*accumulator {
	if target > b.folded {
		p.scanned += target - b.folded
	}
	p.advance(b, target)
	if target <= b.folded {
		return b.accs
	}
	var sc blockScanner
	blo := b.folded / storage.BlockSize
	bhi := (target-1)/storage.BlockSize + 1
	tail := sc.scanUnit(p.metas, p.gs, unit{tbl: b.tbl, b0: blo, b1: bhi, start: 0, end: target})
	cur := cloneAccs(b.accs)
	merge(cur, tail)
	return cur
}

// ProgressiveFrom enters the increment loop mid-sample: it starts a
// resumable evaluation whose state is exactly what a Progressive scan would
// carry after emitting the prefix [0, rows) as increment seq. The cursor
// prefix is folded ONCE — each bank's complete work units into its carried
// accumulators, in the same unit order a continuous scan would have used,
// the (at most one-unit) cursor tail left for the next Step to re-cover —
// so resuming after k consumed increments costs one O(rows) fold, not k
// re-scans, and every subsequent Step emits an increment bit-identical to
// the one the uninterrupted scan would have emitted at the same budget
// (same merge tree, hence the same floats; see the package comment).
//
// rows is clamped to [0, Total]; the next Step emits Seq = seq+1; workers
// caps the fan-out of both the entry fold and later Steps (0 = one worker
// per core; the result is cap-invariant either way). This is the engine
// half of a resumable stream: reconstruct the serving view with
// Engine.PinGen from the cursor's (sample_gen, base_rows, sample_rows),
// then ProgressiveFrom at its (rows_seen, seq).
func (v *View) ProgressiveFrom(snips []*query.Snippet, rows, seq, workers int) *ProgressiveScan {
	ps := v.Progressive(snips)
	ps.workers = workers
	rows = min(max(rows, 0), v.SampleRows)
	if rows > 0 {
		for bi, target := range ps.targets(rows) {
			b := ps.banks[bi]
			ps.advance(b, target)
			ps.scanned += b.folded
		}
		ps.emitted = rows
	}
	if seq >= 0 {
		ps.seq = seq + 1
	}
	return ps
}

// Total is the pinned sample size: the prefix at which Step turns Final.
func (p *ProgressiveScan) Total() int { return p.view.SampleRows }

// Scanned is the number of sample rows the scan has read so far: the
// ProgressiveFrom entry fold, then per Step the newly completed units and
// the partial tail it re-covers, summed over banks.
func (p *ProgressiveScan) Scanned() int { return p.scanned }

// Step advances the scan to the prefix [0, rows) and returns the refreshed
// estimates. rows is clamped to [previous prefix, Total]; a non-advancing
// step re-emits the current estimates. Complete work units newly covered by
// the prefix are folded into the carried accumulators (in unit order, in
// parallel); a mid-unit tail is evaluated into a private copy so the carry
// stays unit-aligned — total work across any monotone step sequence is
// O(Total + steps·unitRows).
func (p *ProgressiveScan) Step(rows int) Increment {
	if p.view.stages != nil {
		defer p.view.ObserveScan(obs.ModeProgressive, p.gs != nil, time.Now())
	}
	total := p.view.SampleRows
	rows = min(max(rows, p.emitted), total)
	// Scatter-gather emission: advance every bank to its prefix target, then
	// merge the banks into fresh accumulators in piece order. Merging into a
	// zero-count accumulator copies the moments, so a single bank emits its
	// own bits.
	emit := freshAccs(p.banks[0].accs)
	for bi, target := range p.targets(rows) {
		if target > 0 {
			mergeAccs(emit, p.stepBank(p.banks[bi], target))
		}
	}
	p.emitted = rows
	inc := Increment{
		Estimates: make([]query.ScalarEstimate, len(emit)),
		Valid:     make([]bool, len(emit)),
		Rows:      rows,
		Total:     total,
		SimTime:   p.view.cost.QueryTime(rows),
		Seq:       p.seq,
		Final:     rows >= total,
	}
	for i, a := range emit {
		inc.Estimates[i], inc.Valid[i] = a.estimate()
	}
	p.seq++
	return inc
}

// cloneAccs deep-copies the accumulators (Moments is a value field, so a
// struct copy suffices; the snippet pointer is shared).
func cloneAccs(accs []*accumulator) []*accumulator {
	out := make([]*accumulator, len(accs))
	for i, a := range accs {
		c := *a
		out[i] = &c
	}
	return out
}

// EvalPrefix evaluates the snippets over the sample prefix [0, rows) with
// one fresh scan — float-identical to the Increment a ProgressiveScan emits
// at the same prefix. It is the replay comparator for streamed increments:
// reconstruct the serving view with Engine.ViewAtGen from a chunk's
// (sample_gen, base_rows, sample_rows), then EvalPrefix at its rows_seen.
func (v *View) EvalPrefix(snips []*query.Snippet, rows int) Increment {
	total := v.SampleRows
	if rows > total {
		rows = total
	}
	if rows < 0 {
		rows = 0
	}
	accs := newAccs(v, snips)
	v.scanPrefix(accs, rows)
	inc := Increment{
		Estimates: make([]query.ScalarEstimate, len(accs)),
		Valid:     make([]bool, len(accs)),
		Rows:      rows,
		Total:     total,
		SimTime:   v.cost.QueryTime(rows),
		Final:     rows >= total,
	}
	for i, a := range accs {
		inc.Estimates[i], inc.Valid[i] = a.estimate()
	}
	return inc
}
