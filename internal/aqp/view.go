package aqp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// Snapshot-isolated serving. A View is an immutable, internally consistent
// snapshot of everything one query evaluation reads: the base relation and
// the sample at a stable row count, plus the cost model in force when it
// was acquired. Scans against a View take no locks, so any number of
// queries can run while Engine.Append lands new rows — or
// Engine.RebuildSample swaps in a new sample generation — behind them; a
// query pinned to a View observes exactly the prefix (and generation) that
// existed when the View was published, and never a torn mid-append state.
//
// Views are cheap: column data is shared with the live tables (appends only
// write past the captured lengths) and only the small per-block zone maps
// are copied. The engine caches the current View and republishes it when
// the table epochs move, so the steady-state Acquire is two atomic loads.

// View is a consistent snapshot of the engine's data and configuration.
type View struct {
	// Base is a frozen snapshot of the base relation.
	Base *storage.Table
	// Sample wraps a frozen snapshot of the sample data; its BaseRows is
	// the base cardinality captured at the same instant.
	Sample *Sample
	// Epoch is a monotone publication counter (0 for replay views built by
	// ViewAtGen). SampleGen names the sample generation (epoch-swap
	// rebuilds bump it); BaseRows/SampleRows identify the snapshot prefix.
	// The (SampleGen, BaseRows, SampleRows) triple is all a serial replay
	// needs to reconstruct this view later (Engine.ViewAtGen).
	Epoch      uint64
	SampleGen  uint64
	BaseRows   int
	SampleRows int

	baseEpoch   uint64
	sampleEpoch uint64
	cost        CostModel

	// stages receives scan-stage latencies. Only serving views published by
	// publishLocked carry it; replay views stay nil so audits are silent.
	stages obs.StageTimer
}

// ObserveScan reports one scan-stage duration to the view's stage timer; a
// nil timer (every replay view) costs one branch. A timed CarriedFold
// reports its own Runs; the serving layer above times every other scan it
// serves — a stream's steps, memoized or scanned, and a time-bound prefix.
func (v *View) ObserveScan(mode string, grouped bool, start time.Time) {
	if v.stages != nil {
		v.stages.ObserveStage(obs.Stage{Name: obs.StageScan, Mode: mode, Grouped: grouped}, time.Since(start))
	}
}

// QueryTime is the simulated AQP latency of scanning a sample prefix of the
// given rows under the view's cost model — an Increment's SimTime.
func (v *View) QueryTime(rows int) time.Duration { return v.cost.QueryTime(rows) }

// RunToCompletion consumes the whole sample and returns the final
// increment: EvalPrefix at SampleRows, the last increment a progressive scan
// of the view emits.
func (v *View) RunToCompletion(snips []*query.Snippet) Increment {
	return v.EvalPrefix(snips, v.SampleRows)
}

// newAccs returns one zero-state accumulator per snippet, as the view's
// scans start them.
func newAccs(v *View, snips []*query.Snippet) []*accumulator {
	accs := make([]*accumulator, len(snips))
	for i, sn := range snips {
		accs[i] = &accumulator{sn: sn, baseRows: v.Sample.BaseRows}
	}
	return accs
}

// increment estimates accumulators that have folded the sample prefix
// [0, rows) — the one place every scan turns fold state into an answer.
func (v *View) increment(accs []*accumulator, rows int) Increment {
	inc := Increment{
		Estimates: make([]query.ScalarEstimate, len(accs)),
		Valid:     make([]bool, len(accs)),
		Rows:      rows,
		Total:     v.SampleRows,
		SimTime:   v.cost.QueryTime(rows),
		Final:     rows >= v.SampleRows,
	}
	for i, a := range accs {
		inc.Estimates[i], inc.Valid[i] = a.estimate()
	}
	return inc
}

// RowsWithin is the largest sample prefix the view's cost model predicts
// can be scanned within a simulated time budget (§7, deployment scenario 2,
// and Appendix C.2's NoLearn).
func (v *View) RowsWithin(budget time.Duration) int { return v.cost.RowsWithin(budget) }

// Exact computes the snippet's exact answer on the view's base relation —
// the ground truth θ̄ experiments compare against.
func (v *View) Exact(sn *query.Snippet) float64 {
	if v.Base.Rows() == 0 {
		return 0
	}
	accs := []*accumulator{{sn: sn}}
	for _, p := range scanUnits(metaOf(accs), appendUnits(nil, v.Base, 0, v.Base.Rows()), 0) {
		merge(accs, p)
	}
	return accs[0].moments.Mean()
}

// GroupRows discovers the distinct group values of a grouped statement by
// scanning the sample row by row, in the order groupOrder gives. It
// returns one empty group for ungrouped statements. Grouped serving paths
// discover their groups in the discovery kernel instead; this pass remains
// for groupings that kernel cannot pack (numeric grouping columns).
func (v *View) GroupRows(groupCols []int, region *query.Region) ([][]query.GroupValue, error) {
	if len(groupCols) == 0 {
		return [][]query.GroupValue{nil}, nil
	}
	seen := map[string]bool{}
	var groups [][]query.GroupValue
	gvs := make([]query.GroupValue, len(groupCols))
	var id []byte
	for _, t := range v.Sample.Pieces() {
		for row := 0; row < t.Rows(); row++ {
			if region != nil && !region.Matches(t, row) {
				continue
			}
			for i, col := range groupCols {
				if t.Schema().Col(col).Kind == storage.Categorical {
					gvs[i] = query.GroupValue{Col: col, Str: t.StrAt(row, col)}
				} else {
					n := t.NumAt(row, col)
					if n == 0 {
						// -0 == 0: key and report both as +0, or the one
						// region col = 0 would answer two groups.
						n = 0
					}
					gvs[i] = query.GroupValue{Col: col, Num: n}
				}
			}
			if id = query.AppendGroupID(id[:0], gvs); !seen[string(id)] {
				seen[string(id)] = true
				groups = append(groups, slices.Clone(gvs))
			}
		}
	}
	out := make([][]query.GroupValue, len(groups))
	for i, g := range groupOrder(v.Sample.Data.Schema(), groups) {
		out[i] = groups[g]
	}
	return out, nil
}

// groupOrder returns the order in which an answer set's group rows are
// reported: by the "|"-joined text of their values (a categorical value's
// string, a numeric one in %g), and a tie between distinct rows whose
// joined texts collide — ("a|b", "c") and ("a", "b|c") — broken value by
// value. GroupRows and the discovery scan both order their answer sets
// with it, so every path reports the same rows in the same order.
func groupOrder(s *storage.Schema, groups [][]query.GroupValue) []int {
	joined := make([]string, len(groups))
	texts := make([][]string, len(groups))
	order := make([]int, len(groups))
	for i, g := range groups {
		texts[i] = make([]string, len(g))
		var sb strings.Builder
		for j, v := range g {
			texts[i][j] = v.Str
			if s.Col(v.Col).Kind != storage.Categorical {
				texts[i][j] = fmt.Sprintf("%g", v.Num)
			}
			sb.WriteByte('|')
			sb.WriteString(texts[i][j])
		}
		joined[i], order[i] = sb.String(), i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if joined[x] != joined[y] {
			return joined[x] < joined[y]
		}
		return slices.Compare(texts[x], texts[y]) < 0
	})
	return order
}

// Acquire returns the current published view, rebuilding it only when an
// append has moved a table epoch — or a rebuild has moved the sample
// generation — since the last publication. The fast path is lock-free: the
// Sample struct behind e.sample is immutable, so one pointer load yields a
// coherent (Gen, Data) pair to compare against the cached view.
func (e *Engine) Acquire() *View {
	if v := e.view.Load(); v != nil && e.viewCurrent(v) {
		return v
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.publishLocked()
}

// viewCurrent reports whether v still reflects the live tables and sample
// generation.
func (e *Engine) viewCurrent(v *View) bool {
	smp := e.sample.Load()
	return v.baseEpoch == e.base.Epoch() &&
		v.SampleGen == smp.Gen &&
		v.sampleEpoch == smp.Data.Epoch()
}

// publishLocked snapshots the live tables and stores the new view. Caller
// holds e.wmu, so the base/sample/BaseRows triple is coherent.
func (e *Engine) publishLocked() *View {
	if v := e.view.Load(); v != nil && e.viewCurrent(v) {
		return v
	}
	cur := e.sample.Load()
	base := e.base.Snapshot()
	data := cur.Data.Snapshot()
	smp := *cur
	smp.Data = data
	smp.BaseRows = base.Rows()
	v := &View{
		Base:        base,
		Sample:      &smp,
		Epoch:       e.viewEpoch.Add(1),
		SampleGen:   cur.Gen,
		BaseRows:    base.Rows(),
		SampleRows:  smp.Rows(),
		baseEpoch:   base.Epoch(),
		sampleEpoch: data.Epoch(),
		cost:        e.cost,
		stages:      e.stages,
	}
	e.view.Store(v)
	return v
}

// ViewAtGen reconstructs the view that served a past query from its
// recorded (SampleGen, BaseRows, SampleRows) triple, reaching back through
// retained retired sample generations: RebuildSample retires the old
// generation's table frozen, so its prefixes survive the live sample's
// re-layout. Returns nil for a generation that never existed — or one that
// has been evicted past the bounded replay horizon (SetMaxRetainedGens);
// use PinGen to distinguish the two and to hold a generation against
// eviction for the duration of a stream.
func (e *Engine) ViewAtGen(gen uint64, baseRows, sampleRows int) *View {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	cur := e.sample.Load()
	if gen > cur.Gen || (gen < cur.Gen && gen < e.retiredBase) {
		return nil
	}
	return e.viewAtLocked(gen, baseRows, sampleRows)
}

// PinGen reconstructs a replay view of generation gen like ViewAtGen and
// additionally pins the generation against eviction until release is
// called (refcounted; release is idempotent). Resumable streams hold their
// pin for the whole stream, so an engine bounded by SetMaxRetainedGens can never
// evict a generation mid-stream. Errors wrap ErrGenUnknown for a
// generation that never existed and ErrGenEvicted for one behind the
// replay horizon.
func (e *Engine) PinGen(gen uint64, baseRows, sampleRows int) (view *View, release func(), err error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	cur := e.sample.Load()
	if gen > cur.Gen {
		return nil, nil, fmt.Errorf("generation %d not yet created (live generation %d): %w", gen, cur.Gen, ErrGenUnknown)
	}
	if gen < cur.Gen && gen < e.retiredBase {
		// The typed error snapshots the horizon under this same lock
		// acquisition, so a 410 body built from it is self-consistent.
		return nil, nil, &GenEvictedError{Gen: gen, Horizon: e.replayHorizonLocked()}
	}
	v := e.viewAtLocked(gen, baseRows, sampleRows)
	e.pmu.Lock()
	e.pins[gen]++
	e.pmu.Unlock()
	return v, e.releaser(gen), nil
}

// AcquirePinned returns the current published view with its generation
// pinned against eviction until release is called — the entry point for
// fresh progressive streams. The fast path matches Acquire's: when the
// cached view is current, only the pin mutex is taken, so starting a
// stream never waits behind an O(sample) rebuild holding the writer lock.
func (e *Engine) AcquirePinned() (view *View, release func()) {
	if v := e.view.Load(); v != nil && e.viewCurrent(v) {
		e.pmu.Lock()
		// Re-check under pmu: a rebuild may have retired — and evicted —
		// this generation between the load and the pin. Eviction holds pmu
		// while it advances the horizon, so reading it here is race-free.
		if v.SampleGen >= e.retention.Load().horizon {
			e.pins[v.SampleGen]++
			e.pmu.Unlock()
			return v, e.releaser(v.SampleGen)
		}
		e.pmu.Unlock()
	}
	e.wmu.Lock()
	v := e.publishLocked()
	e.pmu.Lock()
	e.pins[v.SampleGen]++
	e.pmu.Unlock()
	e.wmu.Unlock()
	return v, e.releaser(v.SampleGen)
}

// releaser returns the idempotent unpin closure for one PinGen/
// AcquirePinned call. Dropping the last pin re-runs eviction, so a bound
// that was blocked by this pin is restored promptly rather than at the
// next rebuild.
func (e *Engine) releaser(gen uint64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			e.wmu.Lock()
			e.pmu.Lock()
			last := false
			if e.pins[gen]--; e.pins[gen] <= 0 {
				delete(e.pins, gen)
				last = true
			}
			e.pmu.Unlock()
			if last {
				e.evictLocked()
			}
			e.wmu.Unlock()
		})
	}
}

// viewAtLocked builds a replay view against generation gen. Caller holds
// e.wmu and guarantees gen exists and is retained.
func (e *Engine) viewAtLocked(gen uint64, baseRows, sampleRows int) *View {
	cur := e.sample.Load()
	src := cur
	if gen < cur.Gen {
		src = e.retired[gen-e.retiredBase]
	}
	base := e.base.SnapshotAt(baseRows)
	// For a partitioned generation the immutable strata carry the first
	// Parts.Rows() global positions; only the tail prefix varies with the
	// recorded sample row count.
	tailRows := sampleRows
	if src.Parts != nil {
		tailRows -= src.Parts.Rows()
		if tailRows < 0 {
			tailRows = 0
		}
	}
	data := src.Data.SnapshotAt(tailRows)
	smp := *src
	smp.Data = data
	smp.BaseRows = base.Rows()
	smp.Gen = gen
	return &View{
		Base:        base,
		Sample:      &smp,
		SampleGen:   gen,
		BaseRows:    base.Rows(),
		SampleRows:  smp.Rows(),
		baseEpoch:   base.Epoch(),
		sampleEpoch: data.Epoch(),
		cost:        e.cost,
	}
}

// Append lands a batch of new rows: the base relation grows, a uniform
// subsample of the batch (at the engine's sampling fraction) extends the
// sample, and a fresh view is published. Concurrent queries pinned to older
// views are unaffected — they keep scanning their stable prefix. The batch
// may be built against its own Schema as long as column names and kinds
// match (AppendByName semantics). Returns how many batch rows entered the
// sample.
//
// New sampled rows land at the sample's tail, so the combined sample is a
// per-batch stratified uniform sample of the grown relation (each stratum
// drawn at the same fraction): full-sample estimates stay unbiased, while
// short online-aggregation prefixes skew toward older data until the next
// offline rebuild.
func (e *Engine) Append(batch *storage.Table, seed int64) (sampled int, err error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if batch.Rows() == 0 {
		return 0, nil
	}
	if err := e.base.AppendByName(batch); err != nil {
		return 0, err
	}
	cur := e.sample.Load()
	k := int(float64(batch.Rows())*cur.Fraction + 0.5)
	if k > batch.Rows() {
		k = batch.Rows()
	}
	if k > 0 {
		idx := randx.New(seed).Perm(batch.Rows())[:k]
		sort.Ints(idx) // deterministic order independent of Perm internals
		sub := batch.SelectRows(batch.Name()+"_sampled", idx)
		if err := cur.Data.AppendByName(sub); err != nil {
			return 0, err
		}
	}
	// Copy-on-write republication of the Sample struct: lock-free readers
	// of e.sample never observe the BaseRows update mid-write.
	ns := *cur
	ns.BaseRows = e.base.Rows()
	e.sample.Store(&ns)
	e.publishLocked()
	return k, nil
}
