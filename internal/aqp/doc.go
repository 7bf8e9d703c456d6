// Package aqp implements the off-the-shelf approximate query processing
// engine Verdict treats as a black box (Figure 2): offline uniform random
// samples, online aggregation over growing sample prefixes with CLT error
// estimates (the paper's NoLearn baseline; one scan, ProgressiveScan,
// serves streams and the paper's curves), a time-bound mode (Appendix C.2,
// one EvalPrefix at the budget's prefix), an exact
// executor used as ground truth, the vectorized block-partitioned scan
// engine (scan.go), epoch-swap sample rebuilds (rebuild.go), and a
// simulated I/O cost model standing in for the paper's Spark/HDFS cluster.
//
// The cost model is the documented substitution for real cluster latency
// (see DESIGN.md §2): experiments report *simulated* time — a fixed
// per-query planning overhead plus scanned-rows divided by scan throughput,
// with distinct cached-memory and SSD throughputs — which reproduces the
// relative runtime structure that drives the paper's speedup results while
// staying deterministic and hardware-independent.
//
// # Concurrency invariants
//
// Who locks what: the engine has exactly one writer mutex, wmu, held by
// Append, RebuildSample and view publication. Read paths take no engine
// locks at all — Acquire's fast path is atomic loads (the cached *View,
// the *Sample pointer, table epochs), and everything reachable from an
// acquired View is safe to scan concurrently.
//
// What is immutable after publish:
//
//   - A published View (frozen base and sample prefix snapshots, cost
//     model, the Epoch/SampleGen/BaseRows/SampleRows stamps) is never
//     mutated; staleness republishes a new one.
//   - The Sample struct behind e.sample is copy-on-write: Append and
//     RebuildSample build a fresh struct and swap the pointer, so a loaded
//     *Sample is always internally coherent. Within a generation the
//     sample *table* is append-only (prefixes immortal → ViewAtGen replays);
//     across generations RebuildSample retires the old table frozen so
//     ViewAtGen can replay any historical prefix of any retained
//     generation. Retention is bounded by SetMaxRetainedGens (0 = keep
//     all): eviction runs oldest-first under wmu and never drops a
//     generation pinned by a live stream (PinGen/AcquirePinned
//     refcounts); behind-horizon access fails with ErrGenEvicted.
//
// Determinism: one merge tree serves every scan (partition.go). Each
// sample piece — each stratum, then the tail — folds into its own bank in
// work units cut from the piece's row 0, and the banks merge in piece
// order; units fan out across workers but merge in unit order. A replay of
// the same view is therefore float-identical to the original run, and every
// full-sample answer — RunToCompletion, GroupedRunToCompletion, a
// CarriedFold — is the final increment of a progressive scan (EvalPrefix
// at SampleRows) bit for bit, which is the increment internal/core's
// replays read.
// There is one carried state, the banks — per-snippet moments, or the
// discovery kernel's per-group folds for a grouped statement (one kernel
// for every GROUP BY scan): ProgressiveScan carries them across the
// increments of a stream, and CarriedFold (carried.go) across
// appends — for standing subscriptions between notify batches and for
// internal/core's scan memo between repeated one-shot queries. Both are
// single-goroutine state; their users hold their own lock around them.
package aqp
