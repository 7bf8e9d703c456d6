package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/storage"
)

// Verdict is the learning layer of Figure 2: it owns one model per
// aggregate function g, routes snippets to them, and exposes the offline
// (Algorithm 1) and online (Algorithm 2) processes.
//
// Verdict is safe for concurrent use. Per-function models are fully
// independent — no inference or maintenance ever reads across FuncID
// boundaries — so each model is its own single-writer domain: its mu
// serializes that model's mutators (Record, Train, SetParams, OnAppend),
// and writers of different functions never contend. Infer
// runs against the model's immutable published snapshot (a registry lookup
// plus one atomic load, then lock-free O(n²) inference), so N serving
// sessions improve one shared synopsis without ever blocking each other's
// inference on a writer's O(n²) maintenance. Models share no learning
// state, so every result — learned parameters, inferred answers, persisted
// snapshots — is the same however writers of different functions
// interleave.
type Verdict struct {
	table *storage.Table
	cfg   Config
	ctr   counters

	// mu guards the registry: the models and their global creation order.
	// It is held only to look up or insert a model, never across model
	// work and never together with a model's mu.
	mu     sync.RWMutex
	models map[query.FuncID]*model
	order  []query.FuncID
}

// New creates a Verdict instance over the given base relation.
func New(table *storage.Table, cfg Config) *Verdict {
	return &Verdict{
		table:  table,
		cfg:    cfg.withDefaults(),
		models: make(map[query.FuncID]*model),
	}
}

// Config returns the effective configuration.
func (v *Verdict) Config() Config { return v.cfg }

// modelOf returns the model of one function, or nil.
func (v *Verdict) modelOf(id query.FuncID) *model {
	v.mu.RLock()
	m := v.models[id]
	v.mu.RUnlock()
	return m
}

// modelFor returns the model of one function, creating and registering it
// with params if it does not exist yet.
func (v *Verdict) modelFor(id query.FuncID, params func() kernel.Params) *model {
	if m := v.modelOf(id); m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.models[id]
	if !ok {
		m = newModel(id, v.cfg, params(), &v.ctr)
		v.models[id] = m
		v.order = append(v.order, id)
	}
	return m
}

// modelOfSnippet returns (creating if needed) the model of the snippet's
// aggregate function, with the table's default parameters.
func (v *Verdict) modelOfSnippet(sn *query.Snippet) *model {
	return v.modelFor(sn.Func(), func() kernel.Params { return kernel.DefaultParams(v.table) })
}

// snapshotOf returns the published inference state of the snippet's
// function: one atomic load on the fast path. The model's mu is taken only
// on the first inference after a mutation (to lazily rebuild and
// republish, Algorithm 1's precomputation) or for a never-seen function.
func (v *Verdict) snapshotOf(sn *query.Snippet) *inferState {
	m := v.modelOfSnippet(sn)
	if st := m.published.Load(); st != nil {
		return st
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publish()
}

// modelsInOrder returns every registered model in global creation order.
func (v *Verdict) modelsInOrder() []*model {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*model, len(v.order))
	for i, id := range v.order {
		out[i] = v.models[id]
	}
	return out
}

// Infer computes the improved answer/error for a new snippet given the AQP
// engine's raw answer/error — one iteration of Algorithm 2's loop. It does
// not modify the synopsis; call Record afterwards.
func (v *Verdict) Infer(sn *query.Snippet, raw query.ScalarEstimate) Improved {
	return inferOn(v.snapshotOf(sn), sn, raw, v.cfg)
}

// Record inserts (q, θ, β) into the query synopsis (Algorithm 2 line 6),
// maintaining the per-function LRU quota; see model.record for what each
// kind of record (unchanged repeat, improved repeat, new snippet) costs.
// Concurrent calls for one function serialize on its model's mu; calls for
// different functions run in parallel.
func (v *Verdict) Record(sn *query.Snippet, raw query.ScalarEstimate) {
	m := v.modelOfSnippet(sn)
	m.mu.Lock()
	m.record(sn, raw)
	m.mu.Unlock()
	v.ctr.records.Add(1)
}

// Train runs the offline process of Algorithm 1 for every aggregate
// function: learn correlation parameters from the synopsis, then
// precompute the covariance factorizations. Models train in parallel and
// share nothing, so the result is identical to a serial run.
func (v *Verdict) Train() error {
	v.mu.Lock()
	ms := make([]*model, len(v.order))
	for i, id := range v.order {
		ms[i] = v.models[id]
	}
	v.mu.Unlock()

	errs := make([]error, len(ms))
	forEachModelParallel(ms, func(i int, m *model) {
		m.learn()
		m.mutated()
		errs[i] = m.rebuild()
		v.ctr.trains.Add(1)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachModelParallel runs fn for every model of ms (in global creation
// order) on up to GOMAXPROCS goroutines — one per model when there are
// fewer — holding each model's mu while fn runs on it. fn receives the
// model's index in ms so callers can keep order-dependent state (the
// first-error selection) deterministic regardless of scheduling.
func forEachModelParallel(ms []*model, fn func(i int, m *model)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(len(ms), runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ms); i = int(next.Add(1) - 1) {
				m := ms[i]
				m.mu.Lock()
				fn(i, m)
				m.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// SetParams pins the correlation parameters of one aggregate function,
// bypassing learning — the knob Appendix B.2's model-validation experiment
// (Figure 9) turns to inject deliberately wrong parameters.
func (v *Verdict) SetParams(id query.FuncID, p kernel.Params) {
	m := v.modelFor(id, func() kernel.Params { return p })
	m.mu.Lock()
	defer m.mu.Unlock()
	m.params = p
	m.paramsFixed = true
	m.chol = nil
	m.mutated()
}

// Params returns the current correlation parameters of one function.
func (v *Verdict) Params(id query.FuncID) (kernel.Params, bool) {
	m := v.modelOf(id)
	if m == nil {
		return kernel.Params{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.params.Clone(), true
}

// FuncIDs lists the aggregate functions with models, in creation order.
func (v *Verdict) FuncIDs() []query.FuncID {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]query.FuncID(nil), v.order...)
}

// SynopsisStat summarizes the synopsis for /stats-style reporting.
type SynopsisStat struct {
	// Snippets is the total synopsis entries across the models.
	Snippets int `json:"snippets"`
	// Functions is the number of per-aggregate-function models.
	Functions int `json:"functions"`
	// FootprintBytes approximates the synopsis memory footprint (§8.5).
	FootprintBytes int `json:"footprint_bytes"`
	// Counters is the synopsis's cumulative write activity.
	Counters
}

// Stats returns the synopsis summary, taken in one pass over the models.
func (v *Verdict) Stats() SynopsisStat {
	ms := v.modelsInOrder()
	st := SynopsisStat{Functions: len(ms), Counters: v.Counters()}
	for _, m := range ms {
		m.mu.Lock()
		st.Snippets += len(m.entries)
		st.FootprintBytes += m.footprintBytes()
		m.mu.Unlock()
	}
	return st
}

// SnippetCount returns the total number of snippets across all models.
func (v *Verdict) SnippetCount() int { return v.Stats().Snippets }

// FootprintBytes approximates the total synopsis memory footprint (§8.5).
func (v *Verdict) FootprintBytes() int { return v.Stats().FootprintBytes }

// counters are the atomics behind Counters. Every model holds a pointer
// to its Verdict's set and bumps the maintenance ones.
type counters struct {
	records          atomic.Int64
	trains           atomic.Int64
	refactorizations atomic.Int64
	factorEdits      atomic.Int64
	gramRebuilds     atomic.Int64
	noopRepeats      atomic.Int64
	kernelCalls      atomic.Int64
}

// Counters is the synopsis's cumulative write activity. The counts are
// lifetime totals for this Verdict instance (a synopsis reload swaps the
// Verdict and restarts them). Refactorizations, FactorEdits, GramRebuilds
// and NoopRepeats say which kind of synopsis maintenance the records caused:
// on a workload of repeated queries over a synopsis that fits,
// Refactorizations and GramRebuilds stay flat while NoopRepeats tracks
// Records; on unique queries at the cap, FactorEdits tracks Records and
// Refactorizations grows by one per builtAt edits.
type Counters struct {
	// Records counts snippets recorded; Trains counts model train passes.
	Records int64 `json:"records"`
	Trains  int64 `json:"trains"`
	// Refactorizations counts from-scratch O(n³) Cholesky factorizations of
	// a model's Σ_n (each also re-estimates σ²).
	Refactorizations int64 `json:"refactorizations"`
	// FactorEdits counts O(n²) factor edits: an Extend for a new slot, a
	// Replace for an evicted or improved one.
	FactorEdits int64 `json:"factor_edits"`
	// GramRebuilds counts Gram caches dropped because a length-scale, a
	// column domain or a dictionary size moved; each costs n²/2 kernel
	// integrals at the next factorization.
	GramRebuilds int64 `json:"gram_rebuilds"`
	// NoopRepeats counts records of an already-held snippet whose error
	// did not improve: a recency bump, nothing republished.
	NoopRepeats int64 `json:"noop_repeats"`
	// GramKernelCalls counts the kernel integrals evaluated to maintain
	// Gram caches: n per new snippet, n(n+1)/2 per full fill.
	GramKernelCalls int64 `json:"gram_kernel_calls"`
}

// Counters returns the synopsis's write-activity totals. Lock-free: the
// counters are atomics, so a metrics scrape never waits behind a training
// pass holding a model's mu.
func (v *Verdict) Counters() Counters {
	c := &v.ctr
	return Counters{
		Records:          c.records.Load(),
		Trains:           c.trains.Load(),
		Refactorizations: c.refactorizations.Load(),
		FactorEdits:      c.factorEdits.Load(),
		GramRebuilds:     c.gramRebuilds.Load(),
		NoopRepeats:      c.noopRepeats.Load(),
		GramKernelCalls:  c.kernelCalls.Load(),
	}
}

// SynopsisKeys returns the sorted snippet keys of one function's synopsis;
// tests use it to verify LRU behaviour.
func (v *Verdict) SynopsisKeys(id query.FuncID) []string {
	m := v.modelOf(id)
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, len(m.entries))
	for i, e := range m.entries {
		keys[i] = e.sn.Key()
	}
	sort.Strings(keys)
	return keys
}
