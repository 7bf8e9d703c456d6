package core

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// The synopsis is sharded by aggregate function. Per-function models are
// fully independent — no inference or maintenance ever reads across
// FuncID boundaries — so the synopsis partitions cleanly: FuncID hashes to
// one of NumShards shards, and each shard is its own single-writer domain
// (one RWMutex serializing that shard's mutators) with copy-on-write
// published per-model snapshots for lock-free readers. Record, Train and
// the append-drift adjustment therefore scale with cores as long as the
// workload touches more than one aggregate function, while Infer's fast
// path stays exactly as cheap as it was with one writer: a read-locked map
// lookup followed by lock-free O(n²) inference on an immutable snapshot.
//
// Because models are independent and learning seeds are assigned in global
// creation order (see Verdict.Train), every result — learned parameters,
// inferred answers, persisted snapshots — is invariant under the shard
// count: NumShards is purely a throughput knob.

// shard is one synopsis partition: a map of models guarded by its own
// writer lock. All mutations of a model run under mu (write-locked), so
// within a shard writers serialize — the "one writer per shard" discipline —
// while cross-shard writers proceed in parallel.
type shard struct {
	mu     sync.RWMutex
	models map[query.FuncID]*model

	// Lifetime counters, atomic so the metrics scrape never touches mu.
	// Models hold a pointer to them and bump the maintenance ones.
	ctr shardCounters
}

// shardCounters are the atomics behind ShardCounter.
type shardCounters struct {
	records          atomic.Int64
	trains           atomic.Int64
	refactorizations atomic.Int64
	factorEdits      atomic.Int64
	gramRebuilds     atomic.Int64
	noopRepeats      atomic.Int64
	kernelCalls      atomic.Int64
}

func newShard() *shard {
	return &shard{models: make(map[query.FuncID]*model)}
}

// shardIndex hashes a FuncID onto [0, n): FNV-1a over the aggregate kind
// and the canonical measure key. The hash is stable across processes, so a
// persisted synopsis reloads onto the same shards (for any fixed n).
func shardIndex(id query.FuncID, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte{byte(id.Kind)})
	h.Write([]byte(id.MeasureKey))
	return int(h.Sum32() % uint32(n))
}

func (v *Verdict) shardFor(id query.FuncID) *shard {
	return v.shards[shardIndex(id, len(v.shards))]
}

// ShardStat summarizes one synopsis shard for /stats-style reporting.
type ShardStat struct {
	// Functions is the number of per-aggregate-function models on the shard.
	Functions int `json:"functions"`
	// Snippets is the total synopsis entries across the shard's models.
	Snippets int `json:"snippets"`
	// FootprintBytes approximates the shard's memory footprint (§8.5).
	FootprintBytes int `json:"footprint_bytes"`
	// ShardCounter is the shard's cumulative write activity.
	ShardCounter
}

// NumShards returns the number of synopsis shards.
func (v *Verdict) NumShards() int { return len(v.shards) }

// ShardCounter is one shard's cumulative write activity. The counts are
// lifetime totals for this Verdict instance (a synopsis reload swaps the
// Verdict and restarts them). Refactorizations, FactorEdits, GramRebuilds
// and NoopRepeats say which kind of synopsis maintenance the records caused:
// on a workload of repeated queries over a synopsis that fits,
// Refactorizations and GramRebuilds stay flat while NoopRepeats tracks
// Records; on unique queries at the cap, FactorEdits tracks Records and
// Refactorizations grows by one per builtAt edits.
type ShardCounter struct {
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

func (c *shardCounters) load() ShardCounter {
	return ShardCounter{
		Records:          c.records.Load(),
		Trains:           c.trains.Load(),
		Refactorizations: c.refactorizations.Load(),
		FactorEdits:      c.factorEdits.Load(),
		GramRebuilds:     c.gramRebuilds.Load(),
		NoopRepeats:      c.noopRepeats.Load(),
		GramKernelCalls:  c.kernelCalls.Load(),
	}
}

// ShardCounters returns each shard's write-activity totals, in shard
// order. Lock-free: the counters are atomics, so a metrics scrape never
// waits behind a training pass holding a shard's write lock.
func (v *Verdict) ShardCounters() []ShardCounter {
	out := make([]ShardCounter, len(v.shards))
	for i, sh := range v.shards {
		out[i] = sh.ctr.load()
	}
	return out
}

// ShardStats returns a per-shard load summary, in shard order. A skewed
// distribution means the workload's aggregate functions hash unevenly;
// with more functions than shards the FNV spread keeps shards balanced.
func (v *Verdict) ShardStats() []ShardStat {
	out := make([]ShardStat, len(v.shards))
	for i, sh := range v.shards {
		sh.mu.RLock()
		st := ShardStat{Functions: len(sh.models), ShardCounter: sh.ctr.load()}
		for _, m := range sh.models {
			st.Snippets += len(m.entries)
			st.FootprintBytes += m.footprintBytes()
		}
		sh.mu.RUnlock()
		out[i] = st
	}
	return out
}

// forEachModelParallel runs fn for every registered model, one goroutine
// per shard, each holding its shard's write lock for the duration. ids are
// visited in global creation order *within* each shard; fn receives the
// global creation index so callers can keep order-dependent state (seeds,
// first-error selection) deterministic regardless of scheduling.
func (v *Verdict) forEachModelParallel(ids []query.FuncID, fn func(globalIdx int, id query.FuncID, m *model)) {
	perShard := make(map[*shard][]int)
	for i, id := range ids {
		sh := v.shardFor(id)
		perShard[sh] = append(perShard[sh], i)
	}
	var wg sync.WaitGroup
	for sh, idxs := range perShard {
		wg.Add(1)
		go func(sh *shard, idxs []int) {
			defer wg.Done()
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for _, i := range idxs {
				if m, ok := sh.models[ids[i]]; ok {
					fn(i, ids[i], m)
				}
			}
		}(sh, idxs)
	}
	wg.Wait()
}
