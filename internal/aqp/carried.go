package aqp

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// CarriedFold is one statement's scan state carried from one execution to
// the next: the moments of a flat snippet list or of a GROUP BY discovery
// spec, folded over the complete batches of one sample generation, the
// rule for when that state may be extended, and the last answer it
// produced. Standing subscriptions carry one per plan across notify
// batches; the scan memo (internal/core) carries one per statement across
// repeated one-shot queries. Every Run returns exactly what
// View.RunToCompletion / View.GroupedRunToCompletion would on the same
// view — the carried state only decides how many rows have to be folded to
// get there:
//
//   - the same snapshot as the last Run (generation, base rows, sample
//     rows): none, the last answer is returned again;
//   - the same binding (generation, batch size, snippet keys or grouped
//     spec fingerprint) with more rows: the newly completed batches plus
//     the partial tail, at most one BatchSize more than the delta;
//   - anything else at or ahead of the carried prefix: one fresh full fold
//     that replaces the carried state;
//   - a view behind the carried prefix (an older generation, or fewer rows
//     than are already folded): one full reference fold, and the carried
//     state is left as it was for the callers that are ahead.
//
// The identity is a merge-tree argument at batch granularity. The one-shot
// scans fold the sample batch by batch, merging per-unit partials in
// (batch, span, unit) order (View.fold), so their result is a pure function
// of the sequence of batch ranges. A carried fold replays that sequence:
// complete batches fold into the carried state once — their bounds never
// change, since BatchSize survives Engine.Append and a generation's sample
// is append-only — and the trailing partial batch folds into a copy at each
// Run, because its end grows with the sample and the unit partition of a
// grown range is not that of its former self plus the delta. (The same is
// why this tree cannot share ProgressiveScan's unit-aligned carry: batch
// starts are not unit-aligned, so the two merge trees differ.) A grouped
// fold discovers groups incrementally: a code first seen in a new batch
// gets an AddZeros backfill over every row folded before it, exactly as in
// the single-shot loop.
//
// A CarriedFold holds moments and keys, never rows or tables: the caller's
// snippets are lent to the carried accumulators for the duration of a Run
// only, because a Snippet references the frozen base table it was planned
// against. It is not safe for concurrent use; callers serialize Runs on
// one fold.
type CarriedFold struct {
	// timed makes Run report its duration to the view's stage timer as the
	// query's scan stage, exactly once, as the one-shot scans do themselves.
	// Notify passes are not queries and stay silent.
	timed bool

	// The binding: the generation and batch size the carried state was
	// folded under, the complete-batch rows it holds, and the plan's shape
	// key — the snippet keys of a flat plan, or groupedSpecKey of a grouped
	// one. Exactly one of accs/gfold is non-nil once bound.
	gen     uint64
	batch   int
	folded  int
	keys    []string
	specKey string
	accs    []*accumulator
	gfold   *groupedFold

	// The last answer and the snapshot it was folded on.
	last struct {
		gen                  uint64
		baseRows, sampleRows int
		nmax                 int
		res                  FoldResult
	}
}

// FoldOutcome says how much of the sample a Run had to fold.
type FoldOutcome uint8

const (
	// FoldReused: same snapshot as the last Run, nothing scanned.
	FoldReused FoldOutcome = iota
	// FoldExtended: the binding held; new complete batches and the partial
	// tail were folded.
	FoldExtended
	// FoldFull: first bind, rebind, or a view behind the carried prefix —
	// the whole sample was folded.
	FoldFull
)

func (o FoldOutcome) String() string {
	return [...]string{"reused", "extended", "folded"}[o]
}

// FoldResult is one Run's answer. Update and Grouped are shared with later
// FoldReused answers: read-only.
type FoldResult struct {
	// Update is the final per-snippet increment; for a grouped run it is
	// Grouped.Update.
	Update Increment
	// Grouped is the discovery result of a grouped (spec) run, else nil.
	Grouped *GroupedResult
	Outcome FoldOutcome
	// Scanned is the number of sample rows this Run folded.
	Scanned int
}

// NewCarriedFold returns an unbound fold; timed selects scan-stage
// reporting (one-shot queries) over silence (notify passes).
func NewCarriedFold(timed bool) *CarriedFold { return &CarriedFold{timed: timed} }

// Run folds v's full sample for the plan — the discovery spec when spec is
// non-nil, the flat snippet list otherwise — and returns the result a
// one-shot execution on v would, extending or replacing the carried state
// as the type comment describes.
func (c *CarriedFold) Run(v *View, snips []*query.Snippet, spec *query.GroupedSpec, nmax int) FoldResult {
	if c.timed && v.stages != nil {
		defer v.ObserveScan(obs.ModeOneShot, spec != nil, time.Now())
	}
	if nmax <= 0 {
		nmax = query.DefaultNmax
	}
	if c.behind(v) {
		res := FoldResult{Outcome: FoldFull, Scanned: v.SampleRows}
		if spec != nil {
			res.Grouped = v.groupedFoldAll(spec, nmax)
			res.Update = res.Grouped.Update
		} else {
			res.Update = v.foldAll(snips)
		}
		return res
	}

	var keys []string
	var specKey string
	if spec != nil {
		specKey = groupedSpecKey(spec)
	} else {
		keys = make([]string, len(snips))
		for i, sn := range snips {
			keys[i] = sn.Key()
		}
	}
	outcome := FoldExtended
	if c.extends(v, keys, specKey, spec != nil) {
		if c.sameSnapshot(v) && (spec == nil || c.last.nmax == nmax) {
			return c.last.res
		}
	} else {
		outcome = FoldFull
		c.gen, c.batch, c.folded = v.SampleGen, v.Sample.BatchSize, 0
		c.keys, c.specKey, c.accs, c.gfold = keys, specKey, nil, nil
		if spec != nil {
			c.gfold = newGroupedFold()
		} else {
			c.accs = newAccs(v, snips)
		}
	}

	// The newly completed batches fold into the carried state; the spans
	// from split on — the partial tail batch — into a copy.
	before, n := c.folded, v.SampleRows
	complete := n - n%c.batch
	spans := v.batchSpans(nil, c.folded, complete, c.batch)
	split := len(spans)
	spans = v.batchSpans(spans, complete, n, c.batch)
	c.folded = complete

	res := FoldResult{Outcome: outcome, Scanned: n - before}
	if spec != nil {
		res.Grouped = c.foldGrouped(v, spec, nmax, spans, split)
		res.Update = res.Grouped.Update
	} else {
		res.Update = c.foldFlat(v, snips, spans, split)
	}
	c.last.gen, c.last.baseRows, c.last.sampleRows = v.SampleGen, v.BaseRows, v.SampleRows
	c.last.nmax, c.last.res = nmax, res
	c.last.res.Outcome, c.last.res.Scanned = FoldReused, 0
	return res
}

// behind reports whether v is older than the carried prefix: it could only
// be served by folding again from nothing, which would throw away state the
// callers on the current view still extend.
func (c *CarriedFold) behind(v *View) bool {
	if c.accs == nil && c.gfold == nil {
		return false
	}
	return v.SampleGen < c.gen || (v.SampleGen == c.gen && v.SampleRows < c.folded)
}

// extends reports whether a plan of the given shape on v can extend the
// carried state: same generation and batch size, at least the folded
// prefix, and the same shape key. Snippet keys stay a list: a categorical
// value in a key could contain any separator a joined key would use.
func (c *CarriedFold) extends(v *View, keys []string, specKey string, grouped bool) bool {
	if grouped {
		if c.gfold == nil || specKey != c.specKey {
			return false
		}
	} else if c.accs == nil || !slices.Equal(keys, c.keys) {
		return false
	}
	return v.SampleGen == c.gen && v.Sample.BatchSize == c.batch && v.SampleRows >= c.folded
}

// sameSnapshot reports whether v is the snapshot the last answer was folded
// on. Within a generation tables are append-only, so equal row counts mean
// equal rows.
func (c *CarriedFold) sameSnapshot(v *View) bool {
	return c.last.gen == v.SampleGen && c.last.baseRows == v.BaseRows && c.last.sampleRows == v.SampleRows
}

// foldFlat lends snips — the caller's current instances of the bound
// snippets, with equal keys, so the arithmetic is bit-identical — to the
// carried accumulators, folds spans into them (the tail from split on into
// a clone), and takes the snippets back.
func (c *CarriedFold) foldFlat(v *View, snips []*query.Snippet, spans []scanSpan, split int) Increment {
	for i, a := range c.accs {
		// baseRows feeds only estimate() (the PopErr term), never the fold,
		// so retargeting it at the view's base cardinality is exact.
		a.sn, a.baseRows = snips[i], v.Sample.BaseRows
	}
	upd := v.increment(v.fold(c.accs, spans, split), v.SampleRows)
	for _, a := range c.accs {
		a.sn = nil
	}
	return upd
}

// foldGrouped discovers the units of spans and merges the complete
// batches' into the carried masters, the tail's into a clone.
func (c *CarriedFold) foldGrouped(v *View, spec *query.GroupedSpec, nmax int, spans []scanSpan, split int) *GroupedResult {
	// Compiled against this spec each Run: the fingerprint pinned the
	// arithmetic, but the result's estimates must reference this plan.
	gs := newDiscoverScan(spec)
	units, cut := spanUnits(spans, split)
	parts := discoverUnits(gs, units)
	c.gfold.merge(gs, parts[:cut])
	emit := c.gfold
	if cut < len(parts) {
		emit = c.gfold.clone()
		emit.merge(gs, parts[cut:])
	}
	return emit.result(v, gs, spec, nmax)
}

// groupedSpecKey fingerprints everything a grouped fold's arithmetic
// depends on: the base region bounds (appends can move domain-clipped
// bounds), the grouping columns, the code-packing shifts (dictionary growth
// past a power of two rewidths the packed keys) and the aggregate family.
// Region.Key renders numeric bounds with %g (shortest round-trip), so equal
// keys imply bit-equal bounds, as snippet keys do on the flat path.
func groupedSpecKey(spec *query.GroupedSpec) string {
	var sb strings.Builder
	sb.WriteString(spec.Base.Key(spec.Table))
	for _, col := range spec.GroupCols {
		sb.WriteString("|g")
		sb.WriteString(strconv.Itoa(col))
	}
	for _, sh := range spec.Shifts {
		sb.WriteString("|s")
		sb.WriteString(strconv.Itoa(int(sh)))
	}
	for _, sn := range spec.Family {
		sb.WriteString("|f")
		sb.WriteString(sn.Func().String())
	}
	return sb.String()
}
