package aqp

import "repro/internal/query"

// StandingScan is the carried accumulator state behind one continuous
// (standing) query: it folds the sample incrementally as appends grow it,
// yet every emitted update is bit-identical to View.RunToCompletion on the
// same view — the replay-equality property continuous subscriptions pin
// their auditability on.
//
// The identity is a merge-tree argument, like ProgressiveScan's but at
// batch granularity. RunToCompletion folds the sample batch by batch: one
// v.scan call per BatchBounds range, in batch order (view.OnlineAggregate).
// Each such call is itself deterministic — the vectorized scan partitions
// the range into work units anchored at its own start block and merges
// per-unit partials in unit order, independent of worker count — so the
// final accumulator state is a pure function of the sequence of
// (start, end) scan calls. A StandingScan replays exactly that sequence:
// complete batches fold into the carried accumulators once (their bounds
// never change — BatchSize survives Engine.Append, and within a generation
// the sample is append-only), and the trailing partial batch is folded
// into a private copy at each Refresh, because its end grows with the
// sample and a grown range does not decompose into the union of its former
// self and the delta under the vectorized unit partition.
//
// Unit-aligned ProgressiveFrom-style folds would NOT be bit-identical
// here: OnlineAggregate's per-batch scans anchor unit partitions at batch
// starts (BatchSize is ceil(k/20) at build time, not unit-aligned), which
// yields a different Welford merge tree than one 0-anchored prefix fold.
type StandingScan struct {
	snips []*query.Snippet
	accs  []*accumulator

	// Binding captured at the first Refresh; a view that disagrees on any
	// of these cannot extend the carried fold and Refresh reports false.
	bound bool
	gen   uint64
	mode  ScanMode
	batch int

	folded int // rows of complete batches folded into accs
}

// NewStandingScan prepares carried state for the given snippet list. The
// scan binds to a view's (generation, scan mode, batch size) at the first
// Refresh.
func NewStandingScan(snips []*query.Snippet) *StandingScan {
	return &StandingScan{snips: snips}
}

// Folded is the number of sample rows folded into the carried
// accumulators (complete batches only).
func (s *StandingScan) Folded() int { return s.folded }

// Gen is the sample generation the scan is bound to (0 before the first
// Refresh — indistinguishable from generation 0 by design; use Bound).
func (s *StandingScan) Gen() uint64 { return s.gen }

// Bound reports whether the scan has folded against a view yet.
func (s *StandingScan) Bound() bool { return s.bound }

// Refresh extends the fold to cover v's full sample and returns the final
// BatchUpdate — bit-identical to v.RunToCompletion(snips) with the same
// snippet list. ok=false means v is incompatible with the carried state
// (different sample generation, scan mode or batch size, or a shrunken
// sample): the caller must start a fresh StandingScan and pay one full
// fold. Only newly appended complete batches plus the partial tail batch
// are scanned, so K refreshes across a growing sample cost O(rows +
// K·BatchSize), not K full scans.
func (s *StandingScan) Refresh(v *View) (upd BatchUpdate, ok bool) {
	if !s.bound {
		s.bind(v)
	} else if !s.extends(v) {
		return BatchUpdate{}, false
	}
	// baseRows feeds only estimate() (the PopErr term), never the fold, so
	// retargeting the carried accumulators at the view's current base
	// cardinality is exact.
	for _, a := range s.accs {
		a.baseRows = v.Sample.BaseRows
	}

	n := v.SampleRows
	complete := n - n%s.batch
	for start := s.folded; start < complete; start += s.batch {
		end := start + s.batch
		v.scan(s.accs, start, end)
	}
	s.folded = complete

	emit := s.accs
	if n > complete {
		// The trailing partial batch folds into a clone: its bounds will
		// grow with the next append, and the vectorized fold of the grown
		// range is not the fold of the old range plus the delta.
		emit = cloneAccs(s.accs)
		v.scan(emit, complete, n)
	}

	upd = BatchUpdate{
		Estimates:   make([]query.ScalarEstimate, len(emit)),
		Valid:       make([]bool, len(emit)),
		RowsScanned: n,
		SimTime:     v.cost.QueryTime(n),
		Batch:       v.Sample.Batches() - 1,
	}
	for i, a := range emit {
		upd.Estimates[i], upd.Valid[i] = a.estimate()
	}
	return upd, true
}

// extends reports whether v can extend the carried fold: same sample
// generation, scan mode and batch size, and at least the folded prefix.
func (s *StandingScan) extends(v *View) bool {
	return v.SampleGen == s.gen && v.mode == s.mode &&
		v.Sample.BatchSize == s.batch && v.SampleRows >= s.folded
}

// lend points the carried accumulators at snips, the caller's current
// instances of the bound snippets (equal keys, so the fold's arithmetic is
// bit-identical); nil takes them back. A Snippet references the frozen base
// table it was planned against, so a fold that kept the snippets of its
// first bind would keep that snapshot — and the column arrays the live
// table has since outgrown — reachable for as long as it is carried.
func (s *StandingScan) lend(snips []*query.Snippet) {
	s.snips = snips
	for i, a := range s.accs {
		a.sn = nil
		if snips != nil {
			a.sn = snips[i]
		}
	}
}

func (s *StandingScan) bind(v *View) {
	s.bound = true
	s.gen = v.SampleGen
	s.mode = v.mode
	s.batch = v.Sample.BatchSize
	s.accs = make([]*accumulator, len(s.snips))
	for i, sn := range s.snips {
		s.accs[i] = &accumulator{sn: sn, baseRows: v.Sample.BaseRows}
	}
}
