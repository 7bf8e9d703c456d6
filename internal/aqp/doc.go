// Package aqp implements the off-the-shelf approximate query processing
// engine Verdict treats as a black box (Figure 2): offline uniform random
// samples, batch-wise online aggregation with CLT error estimates (the
// paper's NoLearn baseline), a time-bound mode (Appendix C.2), an exact
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
// Determinism: scans fan out across workers — a fold schedules the work
// units of every batch it covers together (View.fold) — but merge per-unit
// accumulators in fixed (batch, span, unit) order, so a replay of the same
// view is float-identical to the original run. Each of the two merge trees
// has one carried state. CarriedFold (carried.go) carries the batch-anchored
// one-shot tree — a flat snippet list's accumulators or a GROUP BY
// discovery fold's group masters — across appends, folding only newly
// landed batches and reproducing the one-shot merge tree bit for bit. It
// decides per Run whether to return the last answer for the same snapshot,
// extend, rebind with one full fold when the generation, batch size or plan
// shape drifts, or serve a view behind the carried prefix from the
// reference scan, for both of its users: standing subscriptions across
// notify batches and internal/core's scan memo across repeated one-shot
// queries. ProgressiveScan (progressive.go) carries the prefix-anchored
// tree: one bank per sample piece, folded unit by unit, replayed by
// EvalPrefix. Both are single-goroutine state; their users hold their own
// lock around them.
package aqp
