// Package core implements Verdict itself: the query synopsis, the
// maximum-entropy (multivariate normal) model over snippet answers, the
// O(n²) inference of improved answers and errors (Eq. 4–5 via the block
// forms of Eq. 11–12), model validation (Appendix B), offline correlation-
// parameter learning (Appendix A), and the data-append generalization
// (Appendix D). The package corresponds to the shaded "Inference / Query
// Synopsis / Model / Learning" boxes of Figure 2; the AQP engine it wraps
// lives in internal/aqp and stays a black box. System is the facade wiring
// the full pipeline (parse → check → decompose → scan → infer → record)
// that examples, the CLI and the serving layer consume.
//
// # Concurrency invariants
//
// Per-function models are independent — no inference or maintenance ever
// reads across FuncID boundaries — so each model is its own single-writer
// domain. Who locks what:
//
//   - Mutators of one function's model — Record, Train, SetParams,
//     OnAppend(Sampled) — and its lazy publish hold that model's mu. Writers of different functions never contend.
//   - Infer and SnapshotFor load the model's published *inferState
//     atomically, taking its mu only when nothing is published; the O(n²)
//     inference itself is lock-free.
//   - The registry (functions to models and their global creation order)
//     has its own mutex, Verdict.mu, held only to look up or insert a
//     model — never together with a model's mu.
//   - System guards its workload counters with statsMu (read via
//     StatsSnapshot), the live Verdict pointer with vmu (swapped by
//     LoadSynopsis), and serializes Append/RebuildSample end-to-end with
//     appendMu.
//   - The scan memo (scanmemo.go) has a map lock for lookup and eviction,
//     one lock per entry around the entry's carried fold — two queries
//     wait for each other only when they ask the same statement — and one
//     per entry around a lookup or a store of its stream increments, never
//     held across a scan. No two are held together, and none is held with
//     any lock above.
//
// What is immutable after publish: a model's published inferState (entries
// slice, cloned parameters, Cholesky factor and its row order, the cached
// residual solve, prior mean) is frozen — every
// mutator that changes what inference reads copies entries before any
// in-place edit (copy-on-write), invalidates the snapshot, and the next
// publish rebuilds it. A repeated snippet whose error did not improve
// changes none of that: it bumps a recency stamp kept beside the entries
// and the snapshot stays published. Any number of goroutines may infer
// against a captured inferState without synchronization.
//
// # Scan memo
//
// Every one-shot query runs its scan stage through the carried
// fold its statement's last execution left behind (aqp.CarriedFold, keyed
// by trimmed SQL, at most scanMemoCap statements, least recently asked
// evicted): nothing is scanned when the sample has not changed, only the
// appended rows and the tail's partial work unit when it has grown, everything after a rebuild or when a
// domain-clipped bound moved. A progressive stream looks up the same entry
// and re-emits the raw increments an earlier stream stored for the same
// snapshot and snippet keys, scanning only the prefixes not stored. The
// answer is bit-identical to a fresh progressive scan's increment at the
// same prefix in every case. Replays are that fresh scan — ExecuteView is
// ExecuteViewPrefix at SampleRows — and time-bound queries scan one fresh
// prefix too, so neither reads the memo and the replays audit it
// independently. See ARCHITECTURE.md "Scan memo".
//
// # Synopsis maintenance
//
// Σ_n = σ²·K + diag(β²+nugget²). A model keeps K — the pair covariances at
// σ² = 1 — as a cached Gram triangle in slot order, valid under a signature
// of the length-scales, column domains and dictionary sizes, so kernel
// integrals are evaluated only for a genuinely new snippet (n of them), or
// in full after the signature moves. Entries sit in stable slots; LRU
// recency is a per-slot stamp, and at the quota a new snippet replaces the
// least recently used slot in place. The Cholesky factor of Σ_n is edited in
// O(n²) per record (its rows in a factor order of their own) and rebuilt
// from scratch, re-estimating σ², once per builtAt edits. See model.record
// and ARCHITECTURE.md "Synopsis maintenance" for the cost of each case.
// Results do not depend on how writers of different functions interleave:
// models are independent and share no learning state.
package core
