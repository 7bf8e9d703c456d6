package aqp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
)

// Engine is the black-box AQP engine: it evaluates query snippets on a
// uniform sample and reports raw answers with CLT-based expected errors —
// exactly the (θ, β) contract §3.1 assumes, where β² is the expectation of
// the squared deviation of θ from the exact answer.
//
// The engine is safe for concurrent use: every read path runs against a
// published immutable View (see view.go), and Append serializes writers
// while queries keep scanning the stable prefix they pinned.
type Engine struct {
	base   *storage.Table
	cost   CostModel
	stages obs.StageTimer // nil disables scan-stage timing

	// sample points at the current-generation Sample. The struct behind the
	// pointer is immutable once stored: Append and RebuildSample build a
	// fresh Sample (copy-on-write) and swap the pointer under wmu, so the
	// lock-free view fast path always reads a coherent (Gen, Data) pair.
	sample atomic.Pointer[Sample]

	// wmu serializes writers (Append, RebuildSample) and view publication;
	// view caches the current snapshot, republished whenever a table epoch
	// or the sample generation moves. retired holds the frozen final states
	// of retained sample generations (see RebuildSample): retired[i] is
	// generation retiredBase+i, and the invariant is
	// sample.Load().Gen == retiredBase + uint64(len(retired)).
	//
	// maxRetained bounds len(retired): once a rebuild would push past it,
	// the oldest retired generations are evicted (their tables released)
	// oldest-first — except generations pinned by a live stream (pins
	// refcounts by generation; PinGen/AcquirePinned), which always survive
	// until released. 0 keeps every generation (immortal replay).
	wmu         sync.Mutex
	view        atomic.Pointer[View]
	viewEpoch   atomic.Uint64
	retired     []*Sample
	retiredBase uint64
	maxRetained int

	// layout is the default RebuildSample layout (SetSampleLayout), applied
	// by serving-layer rebuilds that do not override it per call.
	layout RebuildOptions

	// pmu guards pins and orders pinning against eviction without the
	// writer lock: AcquirePinned's fast path pins the published view's
	// generation under pmu alone (so starting a stream never waits behind
	// an O(sample) rebuild holding wmu), while evictLocked — called under
	// wmu — holds pmu for its whole evict-and-republish step. Either a pin
	// lands before the evictor reads the map (the generation survives) or
	// the evictor publishes the advanced horizon first and the pinner,
	// checking it under the same pmu, falls back to the slow path. Lock
	// order is always wmu → pmu.
	pmu  sync.Mutex
	pins map[uint64]int

	// retention is a lock-free snapshot of (horizon, retained, bound),
	// republished by evictLocked whenever any of the three can move, so
	// /stats never blocks behind a rebuild holding wmu.
	retention atomic.Pointer[retentionStat]
}

type retentionStat struct {
	horizon  uint64
	retained int
	max      int
}

// ErrGenEvicted reports a replay or resume request for a sample generation
// that existed but has been evicted past the bounded replay horizon (see
// SetMaxRetainedGens). Callers should restart from the live generation.
// Errors carrying it are *GenEvictedError, which names the horizon.
var ErrGenEvicted = errors.New("aqp: sample generation evicted behind the replay horizon")

// ErrGenUnknown reports a request for a sample generation that has never
// existed on this engine.
var ErrGenUnknown = errors.New("aqp: sample generation does not exist")

// GenEvictedError is the concrete behind-horizon error: it carries the
// horizon observed under the same lock acquisition that rejected the
// generation, so callers (the serving layer's 410 body) can report a
// horizon consistent with the message. errors.Is(err, ErrGenEvicted)
// matches it.
type GenEvictedError struct {
	Gen     uint64
	Horizon uint64
}

func (e *GenEvictedError) Error() string {
	return fmt.Sprintf("aqp: generation %d evicted (replay horizon is %d)", e.Gen, e.Horizon)
}

// Is makes errors.Is(err, ErrGenEvicted) succeed.
func (e *GenEvictedError) Is(target error) bool { return target == ErrGenEvicted }

// NewEngine wires a base relation, its offline sample and a cost model.
func NewEngine(base *storage.Table, sample *Sample, cost CostModel) *Engine {
	e := &Engine{base: base, cost: cost, pins: make(map[uint64]int), layout: DefaultRebuildOptions()}
	e.sample.Store(sample)
	e.retention.Store(&retentionStat{horizon: sample.Gen})
	return e
}

// SetMaxRetainedGens bounds how many retired sample generations the engine
// keeps for replay. 0 (the default) retains every generation — immortal
// replay prefixes at the cost of one sample-sized table per rebuild. A
// positive bound evicts oldest-first whenever a rebuild (or a lowered
// bound) pushes past it, skipping nothing: eviction stops at the first
// still-pinned generation, so a live stream's generation is never dropped
// under pressure. Evicted generations fail ViewAtGen/PinGen with
// ErrGenEvicted; ReplayHorizon reports the oldest still-replayable one.
func (e *Engine) SetMaxRetainedGens(n int) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.maxRetained = n
	e.evictLocked()
}

// evictLocked drops the oldest retired generations until the retained set
// fits maxRetained, never evicting past a pinned generation, then
// republishes the lock-free retention snapshot. Caller holds e.wmu; every
// mutation of the retention state (rebuild, bound change, pin release)
// funnels through here so the snapshot can never go stale.
func (e *Engine) evictLocked() {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if e.maxRetained > 0 {
		for len(e.retired) > e.maxRetained {
			if e.pins[e.retiredBase] > 0 {
				// Oldest-first means a pinned generation blocks eviction of
				// everything newer too; the bound is restored when it
				// releases.
				break
			}
			e.retired[0] = nil // release the table to the GC
			e.retired = e.retired[1:]
			e.retiredBase++
		}
	}
	e.retention.Store(&retentionStat{
		horizon:  e.replayHorizonLocked(),
		retained: len(e.retired),
		max:      e.maxRetained,
	})
}

// PinnedGens is the number of sample generations currently pinned against
// eviction by live streams or standing subscriptions — a leak detector for
// tests: it must return to zero once every stream has ended and every
// subscription has been torn down.
func (e *Engine) PinnedGens() int {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	return len(e.pins)
}

// ReplayHorizon is the oldest sample generation still replayable through
// ViewAtGen/PinGen: retiredBase while retired generations remain, else the
// live generation. Lock-free.
func (e *Engine) ReplayHorizon() uint64 {
	return e.retention.Load().horizon
}

func (e *Engine) replayHorizonLocked() uint64 {
	if len(e.retired) > 0 {
		return e.retiredBase
	}
	return e.sample.Load().Gen
}

// RetainedGens is the number of retired generations currently held for
// replay (the live generation is not counted). Lock-free.
func (e *Engine) RetainedGens() int {
	return e.retention.Load().retained
}

// RetentionStats returns the replay horizon, the retained retired-
// generation count and the configured bound as one coherent snapshot.
// Lock-free: /stats reads it without ever waiting behind a rebuild
// holding the writer lock.
func (e *Engine) RetentionStats() (horizon uint64, retained, maxRetained int) {
	r := e.retention.Load()
	return r.horizon, r.retained, r.max
}

// SetStageTimer installs the scan-stage latency sink. Serving views
// publish with it; replay views (ViewAtGen/PinGen) never carry it,
// so audit re-scans don't pollute the serving distributions. A nil timer
// (the default) reduces instrumentation to one branch per entry point —
// benchmarks and library callers pay nothing. Set it at boot: not safe to
// call while queries are in flight.
func (e *Engine) SetStageTimer(t obs.StageTimer) {
	e.stages = t
	e.view.Store(nil) // republish with the timer on next Acquire
}

// Base returns the underlying live relation. Concurrent consumers should
// prefer Acquire().Base.
func (e *Engine) Base() *storage.Table { return e.base }

// Sample returns the live current-generation sample. Concurrent consumers
// should prefer Acquire().Sample.
func (e *Engine) Sample() *Sample { return e.sample.Load() }

// Cost returns the engine's cost model.
func (e *Engine) Cost() CostModel { return e.cost }

// accumulator tracks one snippet's running estimate across batches.
type accumulator struct {
	sn       *query.Snippet
	moments  mathx.Moments // measure values (AVG) or 0/1 indicators (FREQ)
	scanned  int           // rows examined so far (match or not)
	baseRows int           // base-relation cardinality, for PopErr
}

// minAvgRows is the fewest matching rows before an AVG estimate is
// considered usable; below this the sample variance itself is too noisy
// for a meaningful expected error.
const minAvgRows = 5

// estimate converts the accumulated moments into (θ, β). For AVG the CLT
// standard error is over matching rows, inflated by a Student-t correction
// at small counts (the plug-in sample variance understates the expected
// error there — the kind of estimator overconfidence the paper's
// diagnostics reference [5] addresses); for FREQ it is the binomial
// standard error over all scanned rows. ok=false means no usable
// information yet.
func (a *accumulator) estimate() (query.ScalarEstimate, bool) {
	n := a.moments.Count()
	switch a.sn.Kind {
	case query.FreqAgg:
		if n < 2 {
			return query.ScalarEstimate{}, false
		}
		p := a.moments.Mean()
		popErr := 0.0
		if a.baseRows > 0 {
			popErr = math.Sqrt(math.Max(p*(1-p), 0) / float64(a.baseRows))
		}
		return query.ScalarEstimate{
			Value:  p,
			StdErr: a.moments.StdErr(),
			PopErr: popErr,
		}, true
	default:
		if n < minAvgRows {
			return query.ScalarEstimate{}, false
		}
		// t-quantile to normal-quantile ratio, ≈ 1 + 1.5/ν.
		inflate := 1 + 1.5/float64(n-1)
		popErr := 0.0
		if a.baseRows > 0 && a.scanned > 0 {
			// Estimated matching rows in the base relation.
			matchN := float64(n) / float64(a.scanned) * float64(a.baseRows)
			if matchN < float64(n) {
				matchN = float64(n)
			}
			popErr = math.Sqrt(a.moments.SampleVariance() / matchN)
		}
		return query.ScalarEstimate{
			Value:  a.moments.Mean(),
			StdErr: a.moments.StdErr() * inflate,
			PopErr: popErr,
		}, true
	}
}

// BatchUpdate is one online-aggregation step: the current estimates for all
// snippets after some prefix of batches, with the simulated time spent so
// far (plan overhead included).
type BatchUpdate struct {
	// Estimates holds the per-snippet raw answers; Valid[i] is false while
	// snippet i has no usable estimate yet.
	Estimates []query.ScalarEstimate
	Valid     []bool
	// RowsScanned counts sample rows consumed so far.
	RowsScanned int
	// SimTime is the simulated elapsed time (§ DESIGN.md substitution).
	SimTime time.Duration
	// Batch is the 0-based index of the batch just consumed.
	Batch int
}

// OnlineAggregate processes the sample batch by batch against the current
// view, invoking yield after every batch with refreshed estimates — the
// online-aggregation interface of §7 (deployment scenario 1).
func (e *Engine) OnlineAggregate(snips []*query.Snippet, yield func(BatchUpdate) bool) {
	e.Acquire().OnlineAggregate(snips, yield)
}

// RunToCompletion consumes the whole sample and returns the final update.
func (e *Engine) RunToCompletion(snips []*query.Snippet) BatchUpdate {
	return e.Acquire().RunToCompletion(snips)
}

// TimeBound evaluates the snippets within a simulated time budget against
// the current view (§7, deployment scenario 2, and Appendix C.2's NoLearn).
func (e *Engine) TimeBound(snips []*query.Snippet, budget time.Duration) BatchUpdate {
	return e.Acquire().TimeBound(snips, budget)
}

// Exact computes the snippet's exact answer on the base relation — the
// ground truth θ̄ experiments compare against. It reuses the vectorized
// block pipeline: a FREQ accumulator's indicator mean is the matching
// fraction and an AVG accumulator's mean is the matched-value mean, which
// is exactly the definition of θ̄.
func (e *Engine) Exact(sn *query.Snippet) float64 {
	return e.Acquire().Exact(sn)
}

// GroupRows discovers the distinct group values of a grouped statement by
// scanning the sample (ordered for determinism). It returns one empty group
// for ungrouped statements.
func (e *Engine) GroupRows(groupCols []int, region *query.Region) ([][]query.GroupValue, error) {
	return e.Acquire().GroupRows(groupCols, region)
}

// AnswerCache implements the paper's Baseline2 (Appendix C.1): it memoizes
// past snippet answers by canonical key and replays the lowest-error answer
// for an identical snippet, providing no benefit to novel snippets.
type AnswerCache struct {
	byKey map[string]query.ScalarEstimate
}

// NewAnswerCache returns an empty cache.
func NewAnswerCache() *AnswerCache {
	return &AnswerCache{byKey: make(map[string]query.ScalarEstimate)}
}

// Lookup returns the cached answer for an identical snippet, if any.
func (c *AnswerCache) Lookup(sn *query.Snippet) (query.ScalarEstimate, bool) {
	est, ok := c.byKey[sn.Key()]
	return est, ok
}

// Store records an answer, keeping the lowest-error instance ("when there
// are multiple instances of the same query, Baseline2 caches the one with
// the lowest expected error").
func (c *AnswerCache) Store(sn *query.Snippet, est query.ScalarEstimate) {
	key := sn.Key()
	if old, ok := c.byKey[key]; !ok || est.StdErr < old.StdErr {
		c.byKey[key] = est
	}
}

// Len returns the number of cached snippets.
func (c *AnswerCache) Len() int { return len(c.byKey) }

// Sanitize clamps non-finite error estimates; online aggregation can yield
// +Inf standard errors before two matching rows arrive.
func Sanitize(est query.ScalarEstimate) query.ScalarEstimate {
	if math.IsNaN(est.Value) {
		est.Value = 0
	}
	if math.IsNaN(est.StdErr) || math.IsInf(est.StdErr, 0) {
		est.StdErr = math.MaxFloat64
	}
	if math.IsNaN(est.PopErr) || math.IsInf(est.PopErr, 0) {
		est.PopErr = 0
	}
	return est
}
