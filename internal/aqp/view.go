package aqp

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// Snapshot-isolated serving. A View is an immutable, internally consistent
// snapshot of everything one query evaluation reads: the base relation and
// the sample at a stable row count, plus the cost model and scan mode in
// force when it was acquired. Scans against a View take no locks, so any
// number of queries can run while Engine.Append lands new rows — or
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
	// ViewAt/ViewAtGen). SampleGen names the sample generation (epoch-swap
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
	mode        ScanMode

	// stages receives scan-stage latencies. Only serving views published by
	// publishLocked carry it; replay views stay nil so audits are silent.
	stages obs.StageTimer
}

// observeScan reports one scan-stage duration; a nil timer costs one branch.
func (v *View) observeScan(mode string, grouped bool, start time.Time) {
	if v.stages != nil {
		v.stages.ObserveStage(obs.Stage{Name: obs.StageScan, Mode: mode, Grouped: grouped}, time.Since(start))
	}
}

// scanTable feeds rows [start, end) of one physical table into the
// accumulators using the view's scan mode. Global sample ranges go through
// View.scan (partition.go), which fans out over the per-stratum spans.
func (v *View) scanTable(data *storage.Table, accs []*accumulator, start, end int) {
	switch v.mode {
	case ScanRowAtATime:
		scanRows(data, accs, start, end)
	case ScanVectorizedPerSnippet:
		scanVectorized(data, accs, start, end, false)
	default:
		scanVectorized(data, accs, start, end, true)
	}
}

// Mode reports the scan mode the view was acquired under.
func (v *View) Mode() ScanMode { return v.mode }

// OnlineAggregate processes the sample batch by batch, invoking yield after
// every batch with refreshed estimates — the online-aggregation interface
// of §7 (deployment scenario 1). Iteration stops early when yield returns
// false ("users are satisfied with the current accuracy") or when the
// sample is exhausted.
func (v *View) OnlineAggregate(snips []*query.Snippet, yield func(BatchUpdate) bool) {
	accs := make([]*accumulator, len(snips))
	for i, sn := range snips {
		accs[i] = &accumulator{sn: sn, baseRows: v.Sample.BaseRows}
	}
	for b := 0; b < v.Sample.Batches(); b++ {
		start, end := v.Sample.BatchBounds(b)
		v.scan(accs, start, end)
		upd := BatchUpdate{
			Estimates:   make([]query.ScalarEstimate, len(accs)),
			Valid:       make([]bool, len(accs)),
			RowsScanned: end,
			SimTime:     v.cost.QueryTime(end),
			Batch:       b,
		}
		for i, a := range accs {
			upd.Estimates[i], upd.Valid[i] = a.estimate()
		}
		if !yield(upd) {
			return
		}
	}
}

// RunToCompletion consumes the whole sample and returns the final update.
func (v *View) RunToCompletion(snips []*query.Snippet) BatchUpdate {
	if v.stages != nil {
		defer v.observeScan(obs.ModeOneShot, false, time.Now())
	}
	return v.foldAll(snips)
}

// foldAll is RunToCompletion without the stage observation.
func (v *View) foldAll(snips []*query.Snippet) BatchUpdate {
	var last BatchUpdate
	v.OnlineAggregate(snips, func(u BatchUpdate) bool {
		last = u
		return true
	})
	return last
}

// TimeBound evaluates the snippets within a simulated time budget,
// predicting the largest scannable prefix from the cost model (§7,
// deployment scenario 2, and Appendix C.2's NoLearn).
func (v *View) TimeBound(snips []*query.Snippet, budget time.Duration) BatchUpdate {
	if v.stages != nil {
		defer v.observeScan(obs.ModeOneShot, false, time.Now())
	}
	inc := v.EvalPrefix(snips, v.cost.RowsWithin(budget))
	return BatchUpdate{
		Estimates:   inc.Estimates,
		Valid:       inc.Valid,
		RowsScanned: inc.Rows,
		SimTime:     inc.SimTime,
	}
}

// Exact computes the snippet's exact answer on the view's base relation —
// the ground truth θ̄ experiments compare against. It always uses the
// vectorized block pipeline so the ground truth is scan-mode-independent.
func (v *View) Exact(sn *query.Snippet) float64 {
	if v.Base.Rows() == 0 {
		return 0
	}
	acc := &accumulator{sn: sn}
	scanVectorized(v.Base, []*accumulator{acc}, 0, v.Base.Rows(), true)
	return acc.moments.Mean()
}

// GroupRows discovers the distinct group values of a grouped statement by
// scanning the sample (ordered for determinism). It returns one empty group
// for ungrouped statements.
func (v *View) GroupRows(groupCols []int, region *query.Region) ([][]query.GroupValue, error) {
	if len(groupCols) == 0 {
		return [][]query.GroupValue{nil}, nil
	}
	seen := map[string][]query.GroupValue{}
	var keys []string
	for _, sp := range v.sampleSpans(0, v.SampleRows) {
		t := sp.tbl
		for row := sp.lo; row < sp.hi; row++ {
			if region != nil && !region.Matches(t, row) {
				continue
			}
			key := ""
			gvs := make([]query.GroupValue, len(groupCols))
			for i, col := range groupCols {
				def := t.Schema().Col(col)
				if def.Kind == storage.Categorical {
					s := t.StrAt(row, col)
					gvs[i] = query.GroupValue{Col: col, Str: s}
					key += "|" + s
				} else {
					n := t.NumAt(row, col)
					gvs[i] = query.GroupValue{Col: col, Num: n}
					key += "|" + fmt.Sprintf("%g", n)
				}
			}
			if _, ok := seen[key]; !ok {
				seen[key] = gvs
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	out := make([][]query.GroupValue, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
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

// viewCurrent reports whether v still reflects the live tables, sample
// generation and scan mode.
func (e *Engine) viewCurrent(v *View) bool {
	smp := e.sample.Load()
	return v.baseEpoch == e.base.Epoch() &&
		v.SampleGen == smp.Gen &&
		v.sampleEpoch == smp.Data.Epoch() &&
		v.mode == e.mode
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
		mode:        e.mode,
		stages:      e.stages,
	}
	e.view.Store(v)
	return v
}

// ViewAt reconstructs the view that served a past query of the *current*
// sample generation from its recorded (BaseRows, SampleRows) prefix —
// tables are append-only within a generation, so the prefix snapshot taken
// now is row-for-row identical to the historical one. Serial replays use
// it to audit answers produced under concurrency. To replay a query served
// before a sample rebuild, use ViewAtGen with the result's SampleGen.
func (e *Engine) ViewAt(baseRows, sampleRows int) *View {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.viewAtLocked(e.sample.Load().Gen, baseRows, sampleRows)
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
// pin for the whole stream, so a MaxRetainedGens-bounded engine can never
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
		mode:        e.mode,
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
