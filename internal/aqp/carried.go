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
// the next: the banks of a flat snippet list or of a GROUP BY discovery
// spec, folded over one sample generation, the rule for when they may be
// extended, and the last answer they produced. Standing subscriptions carry
// one per plan across notify batches; the scan memo (internal/core) carries
// one per statement across repeated one-shot queries. Every Run returns
// exactly what View.RunToCompletion / View.GroupedRunToCompletion would on
// the same view — the carried state only decides how many rows have to be
// folded to get there:
//
//   - the same snapshot as the last Run (generation, base rows, sample
//     rows): none, the last answer is returned again;
//   - the same binding (generation, and the snippet keys or the grouped
//     spec fingerprint) with more rows: the appended rows plus the partial
//     tail unit, at most one work unit more than the delta;
//   - anything else at or ahead of the carried prefix: one fresh full fold
//     that replaces the carried state;
//   - a view behind the carried prefix (an older generation, or fewer rows
//     than are already folded): one full reference fold, and the carried
//     state is left as it was for the callers that are ahead.
//
// The banks are the ones every scan folds (partition.go): one per sample
// piece, folded in units from the piece's row 0. Within a generation the
// strata never change, so their banks fold to the end once; the tail piece
// only grows, so its complete units never change either, and each Run
// re-covers only its partial last unit, into a copy.
//
// A CarriedFold holds moments and keys, never rows or tables: the caller's
// snippets compile each Run's scan and estimate its answer, and bank
// accumulators hold no snippet, because a Snippet references the frozen
// base table it was planned against. It is not safe for concurrent use;
// callers serialize Runs on one fold.
type CarriedFold struct {
	// timed makes Run report its duration to the view's stage timer as the
	// query's scan stage, exactly once, as the one-shot scans do themselves.
	// Notify passes are not queries and stay silent.
	timed bool

	// The binding: the generation the banks were folded under, the sample
	// rows they hold, and the plan's shape key — the snippet keys of a flat
	// plan, or groupedSpecKey of a grouped one. Exactly one of flat/grouped
	// is non-nil once bound.
	gen     uint64
	folded  int
	keys    []string
	specKey string
	flat    []*bank[[]*accumulator]
	grouped []*bank[*groupedFold]

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
	// FoldExtended: the binding held; the appended rows and the partial
	// tail unit were folded.
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
	// A view behind the carried prefix folds into fresh banks it drops.
	behind := c.behind(v)
	outcome, flat, grouped := FoldExtended, c.flat, c.grouped
	if !behind && c.extends(v, keys, specKey, spec != nil) {
		if c.sameSnapshot(v) && (spec == nil || c.last.nmax == nmax) {
			return c.last.res
		}
	} else {
		outcome, flat, grouped = FoldFull, nil, nil
		if spec != nil {
			grouped = newBanks(v, newGroupedFold)
		} else {
			flat = flatBanks(v, len(snips))
		}
		if !behind {
			c.gen, c.keys, c.specKey, c.flat, c.grouped = v.SampleGen, keys, specKey, flat, grouped
		}
	}

	res := FoldResult{Outcome: outcome}
	if spec != nil {
		res.Grouped, res.Scanned = v.groupedPass(grouped, spec, nmax)
		res.Update = res.Grouped.Update
	} else {
		accs := newAccs(v, snips)
		res.Scanned = v.flatPass(flat, accs, metaOf(accs), v.pieceTargets(v.SampleRows), 0)
		res.Update = v.increment(accs, v.SampleRows)
	}
	if !behind {
		// Every row is in a bank but the tail's partial last unit.
		c.folded = v.SampleRows - v.Sample.Data.Rows()%unitRows
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
	if c.flat == nil && c.grouped == nil {
		return false
	}
	return v.SampleGen < c.gen || (v.SampleGen == c.gen && v.SampleRows < c.folded)
}

// extends reports whether a plan of the given shape on v can extend the
// carried state: same generation, at least the folded prefix, and the same
// shape key. Snippet keys stay a list: a categorical value in a key could
// contain any separator a joined key would use.
func (c *CarriedFold) extends(v *View, keys []string, specKey string, grouped bool) bool {
	if grouped {
		if c.grouped == nil || specKey != c.specKey {
			return false
		}
	} else if c.flat == nil || !slices.Equal(keys, c.keys) {
		return false
	}
	return v.SampleGen == c.gen && v.SampleRows >= c.folded
}

// sameSnapshot reports whether v is the snapshot the last answer was folded
// on. Within a generation tables are append-only, so equal row counts mean
// equal rows.
func (c *CarriedFold) sameSnapshot(v *View) bool {
	return c.last.gen == v.SampleGen && c.last.baseRows == v.BaseRows && c.last.sampleRows == v.SampleRows
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
