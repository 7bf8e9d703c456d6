package aqp

import (
	"time"

	"repro/internal/query"
	"repro/internal/storage"
)

// Progressive (resumable) online aggregation — §7's deployment scenario 1.
// ProgressiveScan is the one online-aggregation loop: the serving layer and
// the paper's curves drive it alike over growing prefix budgets (the
// doubling PrefixSchedule for streams, the sample's batch ends for the
// curves). It carries one bank per sample piece across increments
// (partition.go): complete work units fold into the banks exactly once,
// and the (at most one-unit) partial tail of a prefix folds into a copy at
// each emission. Emitting k increments over an n-row sample therefore costs
// O(n + k·unitRows), and every increment is float-identical to a fresh scan
// of the same prefix — EvalPrefix, which replays any streamed increment
// bit for bit through Engine.ViewAtGen.

// unitRows is the row span of one complete work unit — the granule at which
// banks fold finished partials into their carried state.
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

// Increment is the answer every engine scan returns: the estimates after
// some prefix of the sample — the whole sample for a one-shot, carried or
// grouped fold — plus enough provenance to replay it later.
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
	// Seq counts a progressive scan's emitted increments (0-based; 0 from
	// every other scan); Final marks an increment that consumed the whole
	// sample.
	Seq   int
	Final bool
}

// ProgressiveScan evaluates a plan over growing prefixes of one pinned
// view's sample. It is single-caller state (drive it from one goroutine);
// the underlying view is immutable, so appends and sample rebuilds landing
// mid-stream never affect the increments it emits.
type ProgressiveScan struct {
	view    *View
	workers int // worker cap for unit folds; 0 = GOMAXPROCS
	emitted int // last emitted prefix
	scanned int // sample rows read so far, re-covered tails included
	seq     int

	// The carry, one bank per sample piece, in exactly one of the two forms
	// CarriedFold carries: a snippet list's per-snippet moments (flat), or
	// a grouped spec's discovery folds (grouped), which every Step expands
	// onto the answer set in set.
	snips   []*query.Snippet
	metas   []snipMeta
	flat    []*bank[[]*accumulator]
	gs      *groupedScan
	spec    *query.GroupedSpec
	set     *GroupedResult
	grouped []*bank[*groupedFold]
}

// Progressive starts a resumable evaluation of the snippets against this
// view's sample on the per-snippet kernel. Drive it with Step, typically
// over PrefixSchedule budgets.
func (v *View) Progressive(snips []*query.Snippet) *ProgressiveScan {
	return &ProgressiveScan{view: v, snips: snips, metas: metaOf(newAccs(v, snips)), flat: flatBanks(v, len(snips))}
}

// GroupedProgressive starts a resumable evaluation of a grouped spec on the
// discovery kernel. set is the answer set of the statement on this view —
// GroupedRunToCompletion(spec, nmax) — and every Step expands its prefix
// onto set's groups in Decompose order: the increment EvalPrefix of the
// decomposed snippet list would give, bit for bit.
func (v *View) GroupedProgressive(spec *query.GroupedSpec, set *GroupedResult) *ProgressiveScan {
	return &ProgressiveScan{view: v, gs: newDiscoverScan(spec), spec: spec, set: set, grouped: newBanks(v, newGroupedFold)}
}

// From enters the increment loop mid-sample: it leaves a fresh scan in the
// state it would carry after emitting the prefix [0, rows) as increment
// seq. The cursor prefix's complete units fold ONCE, the cursor tail is
// left for the next Step, so resuming after k consumed increments costs one
// O(rows) fold, and every later Step emits the increment the uninterrupted
// scan would have emitted at the same budget, bit for bit (same merge
// tree).
//
// rows is clamped to [0, Total]; the next Step emits Seq = seq+1; workers
// caps the fan-out of the entry fold and later Steps (0 = one worker per
// core; the result is cap-invariant). This is the engine half of a
// resumable stream: reconstruct the serving view with Engine.PinGen from
// the cursor's (sample_gen, base_rows, sample_rows), then From at its
// (rows_seen, seq).
func (p *ProgressiveScan) From(rows, seq, workers int) *ProgressiveScan {
	p.workers = workers
	if rows = min(max(rows, 0), p.view.SampleRows); rows > 0 {
		// Complete units only: the cursor tail is the next Step's to cover.
		targets := p.view.pieceTargets(rows)
		for b := range targets {
			targets[b] -= targets[b] % unitRows
		}
		// The fold's answer is not an increment of the schedule: dropped.
		_, p.scanned = p.pass(targets, rows)
		p.emitted = rows
	}
	if seq >= 0 {
		p.seq = seq + 1
	}
	return p
}

// Total is the pinned sample size: the prefix at which Step turns Final.
func (p *ProgressiveScan) Total() int { return p.view.SampleRows }

// Scanned is the number of sample rows the scan has read so far: the
// From entry fold, then per Step the newly completed units and the partial
// tail it re-covers, summed over banks.
func (p *ProgressiveScan) Scanned() int { return p.scanned }

// Step advances the scan to the prefix [0, rows) and returns the refreshed
// estimates. rows is clamped to [previous prefix, Total]; a non-advancing
// step re-emits the current estimates. Total work across any monotone step
// sequence is O(Total + steps·unitRows).
func (p *ProgressiveScan) Step(rows int) Increment {
	rows = min(max(rows, p.emitted), p.view.SampleRows)
	inc, scanned := p.pass(p.view.pieceTargets(rows), rows)
	p.scanned += scanned
	p.emitted = rows
	inc.Seq = p.seq
	p.seq++
	return inc
}

// pass takes the banks to the piece targets and returns the increment at
// the prefix [0, rows) they cut, and the rows read.
func (p *ProgressiveScan) pass(targets []int, rows int) (Increment, int) {
	v := p.view
	if p.grouped != nil {
		f, scanned := v.foldGrouped(p.grouped, p.gs, targets, p.workers)
		return f.expand(v, p.gs, p.spec, p.set.codes, rows), scanned
	}
	accs := newAccs(v, p.snips)
	scanned := v.flatPass(p.flat, accs, p.metas, targets, p.workers)
	return v.increment(accs, rows), scanned
}

// EvalPrefix evaluates the snippets over the sample prefix [0, rows) with
// one fresh scan — float-identical to the Increment a ProgressiveScan emits
// at the same prefix. It is the replay comparator for streamed increments:
// reconstruct the serving view with Engine.ViewAtGen from a chunk's
// (sample_gen, base_rows, sample_rows), then EvalPrefix at its rows_seen.
func (v *View) EvalPrefix(snips []*query.Snippet, rows int) Increment {
	return v.Progressive(snips).Step(rows)
}
