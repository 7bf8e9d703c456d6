package core

import (
	"sort"
	"sync"

	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/storage"
)

// Verdict is the learning layer of Figure 2: it owns one model per
// aggregate function g, routes snippets to them, and exposes the offline
// (Algorithm 1) and online (Algorithm 2) processes.
//
// Verdict is safe for concurrent use and sharded for write throughput:
// each aggregate function's model lives on one of Config.NumShards shards
// (hash of FuncID), and every shard is an independent single-writer domain
// — see shard.go for the discipline. Infer runs against an immutable
// published per-model snapshot (lock-free after a brief read-locked
// lookup), while the mutators — Record, Train, SetParams, OnAppend,
// ApplyAppend — serialize only with other writers of the *same shard* and
// republish. N serving sessions therefore improve one shared synopsis with
// writer throughput that scales with cores, without ever blocking each
// other's inference on a writer's O(n²) maintenance.
type Verdict struct {
	table  *storage.Table
	cfg    Config
	shards []*shard

	// regMu guards the cross-shard registry: the global creation order of
	// aggregate functions and the deterministic learning-seed counter.
	// Lock order: a shard's mu may be held while taking regMu, never the
	// reverse.
	regMu sync.Mutex
	order []query.FuncID
	seed  int64
}

// New creates a Verdict instance over the given base relation.
func New(table *storage.Table, cfg Config) *Verdict {
	cfg = cfg.withDefaults()
	shards := make([]*shard, cfg.NumShards)
	for i := range shards {
		shards[i] = newShard()
	}
	return &Verdict{
		table:  table,
		cfg:    cfg,
		shards: shards,
		seed:   1,
	}
}

// Config returns the effective configuration.
func (v *Verdict) Config() Config { return v.cfg }

// register appends a newly created function to the global creation order.
// Callers hold the owning shard's write lock (see the lock-order note on
// regMu).
func (v *Verdict) register(id query.FuncID) {
	v.regMu.Lock()
	v.order = append(v.order, id)
	v.regMu.Unlock()
}

// modelForLocked returns (creating and registering if needed) the model of
// the snippet's aggregate function. Caller holds sh's write lock, and sh
// must be the snippet function's shard.
func (v *Verdict) modelForLocked(sh *shard, sn *query.Snippet) *model {
	id := sn.Func()
	m, ok := sh.models[id]
	if !ok {
		m = newModel(id, v.cfg, kernel.DefaultParams(v.table), &sh.ctr)
		sh.models[id] = m
		v.register(id)
	}
	return m
}

// modelOf returns the model of one function, or nil — introspection for
// tests; the returned model must only be read while no writer is active.
func (v *Verdict) modelOf(id query.FuncID) *model {
	sh := v.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.models[id]
}

// Infer computes the improved answer/error for a new snippet given the AQP
// engine's raw answer/error — one iteration of Algorithm 2's loop. It does
// not modify the synopsis; call Record afterwards.
//
// Fast path: a read-locked lookup of the shard's published snapshot, then
// lock-free O(n²) inference. The shard write lock is taken only on the
// first inference after a mutation (to lazily rebuild and republish,
// Algorithm 1's precomputation) or for a never-seen aggregate function.
func (v *Verdict) Infer(sn *query.Snippet, raw query.ScalarEstimate) Improved {
	id := sn.Func()
	sh := v.shardFor(id)
	sh.mu.RLock()
	m := sh.models[id]
	var st *inferState
	if m != nil {
		st = m.published
	}
	sh.mu.RUnlock()
	if st == nil {
		sh.mu.Lock()
		m = v.modelForLocked(sh, sn)
		st = m.publish()
		sh.mu.Unlock()
	}
	return inferOn(st, sn, raw, v.cfg)
}

// Record inserts (q, θ, β) into the query synopsis (Algorithm 2 line 6),
// maintaining the per-function LRU quota; see model.record for what each
// kind of record (unchanged repeat, improved repeat, new snippet) costs.
// Record is the per-shard single-writer path: concurrent calls for
// functions on the same shard serialize on that shard's write lock; calls
// landing on different shards run in parallel.
func (v *Verdict) Record(sn *query.Snippet, raw query.ScalarEstimate) {
	sh := v.shardFor(sn.Func())
	sh.mu.Lock()
	v.modelForLocked(sh, sn).record(sn, raw)
	sh.mu.Unlock()
	sh.ctr.records.Add(1)
}

// Train runs the offline process of Algorithm 1 for every aggregate
// function: learn correlation parameters from the synopsis, then
// precompute the covariance factorizations. Shards train in parallel;
// learning seeds are assigned in global creation order first, so the
// result is identical to a serial run and invariant under NumShards.
func (v *Verdict) Train() error {
	v.regMu.Lock()
	ids := append([]query.FuncID(nil), v.order...)
	seeds := make([]int64, len(ids))
	for i := range ids {
		v.seed++
		seeds[i] = v.seed
	}
	v.regMu.Unlock()

	errs := make([]error, len(ids))
	v.forEachModelParallel(ids, func(i int, id query.FuncID, m *model) {
		m.learn(seeds[i])
		m.mutated()
		errs[i] = m.rebuild()
		v.shardFor(id).ctr.trains.Add(1)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetParams pins the correlation parameters of one aggregate function,
// bypassing learning — the knob Appendix B.2's model-validation experiment
// (Figure 9) turns to inject deliberately wrong parameters.
func (v *Verdict) SetParams(id query.FuncID, p kernel.Params) {
	sh := v.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.models[id]
	if !ok {
		m = newModel(id, v.cfg, p, &sh.ctr)
		sh.models[id] = m
		v.register(id)
	}
	m.params = p
	m.paramsFixed = true
	m.chol = nil
	m.mutated()
}

// Params returns the current correlation parameters of one function.
func (v *Verdict) Params(id query.FuncID) (kernel.Params, bool) {
	sh := v.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.models[id]
	if !ok {
		return kernel.Params{}, false
	}
	return m.params.Clone(), true
}

// FuncIDs lists the aggregate functions with models, in creation order.
func (v *Verdict) FuncIDs() []query.FuncID {
	v.regMu.Lock()
	defer v.regMu.Unlock()
	return append([]query.FuncID(nil), v.order...)
}

// SnippetCount returns the total number of snippets across all models.
func (v *Verdict) SnippetCount() int {
	n := 0
	for _, sh := range v.shards {
		sh.mu.RLock()
		for _, m := range sh.models {
			n += len(m.entries)
		}
		sh.mu.RUnlock()
	}
	return n
}

// FootprintBytes approximates the total synopsis memory footprint (§8.5).
func (v *Verdict) FootprintBytes() int {
	total := 0
	for _, sh := range v.shards {
		sh.mu.RLock()
		for _, m := range sh.models {
			total += m.footprintBytes()
		}
		sh.mu.RUnlock()
	}
	return total
}

// LogLikelihood evaluates Eq. 13 for one function under arbitrary
// parameters (experiment support).
func (v *Verdict) LogLikelihood(id query.FuncID, p kernel.Params) float64 {
	sh := v.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.models[id]
	if !ok {
		return 0
	}
	return m.logLikelihood(p)
}

// SynopsisKeys returns the sorted snippet keys of one function's synopsis;
// tests use it to verify LRU behaviour.
func (v *Verdict) SynopsisKeys(id query.FuncID) []string {
	sh := v.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.models[id]
	if !ok {
		return nil
	}
	keys := make([]string, len(m.entries))
	for i, e := range m.entries {
		keys[i] = e.sn.Key()
	}
	sort.Strings(keys)
	return keys
}
