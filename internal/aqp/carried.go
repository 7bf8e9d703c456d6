package aqp

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// CarriedFold is one statement's scan state carried from one execution to
// the next: a StandingScan for a flat snippet list or a GroupedStandingScan
// for a GROUP BY discovery spec, the rule for when that state may be
// extended, and the last answer it produced. Standing subscriptions carry
// one per plan across notify batches; the scan memo (internal/core) carries
// one per statement across repeated one-shot queries. Every Run returns
// exactly what View.RunToCompletion / View.GroupedRunToCompletion would on
// the same view — the carried state only decides how many rows have to be
// folded to get there:
//
//   - the same snapshot as the last Run (generation, base rows, sample
//     rows): none, the last answer is returned again;
//   - the same binding (generation, scan mode, batch size, snippet keys or
//     grouped spec fingerprint) with more rows: the newly completed batches
//     plus the partial tail, at most one BatchSize more than the delta;
//   - anything else at or ahead of the carried prefix: one fresh full fold
//     that replaces the carried state;
//   - a view behind the carried prefix (an older generation, or fewer rows
//     than are already folded): one full reference fold, and the carried
//     state is left as it was for the callers that are ahead.
//
// A CarriedFold holds moments and keys, never rows or tables: snippets are
// borrowed for the duration of a Run (see StandingScan.lend). It is not
// safe for concurrent use; callers serialize Runs on one fold.
type CarriedFold struct {
	// timed makes Run report its duration to the view's stage timer as the
	// query's scan stage, exactly once, as the one-shot scans do themselves.
	// Notify passes are not queries and stay silent.
	timed bool

	// Exactly one of scan/gscan is non-nil once bound; keys are the bound
	// flat snippets' keys (a grouped scan fingerprints its own spec).
	scan  *StandingScan
	keys  []string
	gscan *GroupedStandingScan

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
	// Update is the final per-snippet update; for a grouped run it is
	// Grouped.Update.
	Update BatchUpdate
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
		defer v.observeScan(obs.ModeOneShot, spec != nil, time.Now())
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
	var res FoldResult
	if spec != nil {
		res = c.runGrouped(v, spec, nmax)
	} else {
		res = c.runFlat(v, snips)
	}
	if res.Outcome != FoldReused {
		c.last.gen, c.last.baseRows, c.last.sampleRows = v.SampleGen, v.BaseRows, v.SampleRows
		c.last.nmax, c.last.res = nmax, res
		c.last.res.Outcome, c.last.res.Scanned = FoldReused, 0
	}
	return res
}

// behind reports whether v is older than the carried prefix: it could only
// be served by folding again from nothing, which would throw away state the
// callers on the current view still extend.
func (c *CarriedFold) behind(v *View) bool {
	var gen uint64
	var folded int
	switch {
	case c.scan != nil:
		gen, folded = c.scan.gen, c.scan.folded
	case c.gscan != nil:
		gen, folded = c.gscan.gen, c.gscan.folded
	default:
		return false
	}
	return v.SampleGen < gen || (v.SampleGen == gen && v.SampleRows < folded)
}

// sameSnapshot reports whether v is the snapshot the last answer was folded
// on. Within a generation tables are append-only, so equal row counts mean
// equal rows.
func (c *CarriedFold) sameSnapshot(v *View) bool {
	return c.last.gen == v.SampleGen && c.last.baseRows == v.BaseRows && c.last.sampleRows == v.SampleRows
}

func (c *CarriedFold) runFlat(v *View, snips []*query.Snippet) FoldResult {
	keys := make([]string, len(snips))
	for i, sn := range snips {
		keys[i] = sn.Key()
	}
	s := c.scan
	outcome := FoldExtended
	if s != nil && slices.Equal(c.keys, keys) && s.extends(v) {
		if c.sameSnapshot(v) {
			return c.last.res
		}
		s.lend(snips)
	} else {
		s, outcome = NewStandingScan(snips), FoldFull
	}
	before := s.folded
	upd, _ := s.Refresh(v) // cannot refuse: s is fresh or extends(v) held
	s.lend(nil)
	c.scan, c.keys, c.gscan = s, keys, nil
	return FoldResult{Update: upd, Outcome: outcome, Scanned: v.SampleRows - before}
}

func (c *CarriedFold) runGrouped(v *View, spec *query.GroupedSpec, nmax int) FoldResult {
	g := c.gscan
	outcome := FoldExtended
	if g != nil && g.extends(v, groupedSpecKey(spec)) {
		if c.sameSnapshot(v) && c.last.nmax == nmax {
			return c.last.res
		}
	} else {
		g, outcome = NewGroupedStandingScan(), FoldFull
	}
	before := g.folded
	gr, _ := g.Refresh(v, spec, nmax) // cannot refuse: g is fresh or extends held
	c.gscan, c.scan, c.keys = g, nil, nil
	return FoldResult{Update: gr.Update, Grouped: gr, Outcome: outcome, Scanned: v.SampleRows - before}
}
