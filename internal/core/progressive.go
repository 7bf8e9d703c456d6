package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/aqp"
	"repro/internal/obs"
)

// Progressive query execution: the online-aggregation pipeline behind the
// serving layer's /query/stream. One stream pins one engine view (snapshot
// isolation against appends and sample rebuilds — the generation is also
// pinned against replay-horizon eviction for the stream's lifetime) and one
// InferSnapshot (coherent Bayesian adjustment against a fixed synopsis),
// then walks the sample in growing prefix increments; every partial answer
// carries the model-improved estimate and its shrinking confidence
// interval. The raw side of each increment is replayable bit-for-bit
// afterwards via Engine.ViewAtGen + ExecuteViewPrefix, and a dropped stream
// is resumable mid-sample via ExecuteProgressiveFrom: the cursor prefix is
// folded once (aqp.ProgressiveScan.From), so the resumed stream's remaining
// increments are bit-identical to the ones the uninterrupted stream would
// have emitted.

// Progress describes one emitted progressive increment.
type Progress struct {
	// Seq is the 0-based increment index; Rows is the sample prefix the
	// increment reflects, out of SampleRows total.
	Seq        int
	Rows       int
	SampleRows int
	// SimTime is the simulated AQP latency of the prefix scanned so far.
	SimTime time.Duration
	// Final marks the increment that consumed the whole sample.
	Final bool
	// TargetMet marks the increment whose raw confidence interval first
	// satisfied ProgressiveOptions.TargetCI; the stream stops with it.
	TargetMet bool
}

// ProgressiveOptions tunes ExecuteProgressive.
type ProgressiveOptions struct {
	// FirstRows is the first increment's row budget, doubling thereafter;
	// <= 0 selects aqp.DefaultFirstPrefix.
	FirstRows int
	// Schedule, when non-empty, is an explicit list of prefix budgets and
	// overrides FirstRows.
	Schedule []int
	// Workers caps the per-increment scan fan-out (0 = GOMAXPROCS).
	Workers int
	// TargetCI, when positive, is the server-side stop condition of online
	// aggregation: the stream ends at the first increment whose raw
	// 95% confidence half-width (Alpha95 standard errors) is <= TargetCI for
	// every result cell (absolute by default; relative to each cell's raw
	// estimate when TargetRelative is set). A target stop is not sample
	// exhaustion, so nothing is recorded into the synopsis.
	TargetCI float64
	// TargetRelative interprets TargetCI as a fraction of each cell's raw
	// estimate magnitude instead of an absolute half-width.
	TargetRelative bool
}

// ProgressiveCursor names the resume point of an interrupted progressive
// stream: the pinned snapshot triple that reconstructs its view
// (Engine.PinGen), the prefix already consumed, and the sequence number of
// the last increment the client received. Epoch is carried through verbatim
// so resumed results report the original serving view's epoch.
type ProgressiveCursor struct {
	SampleGen  uint64
	Epoch      uint64
	BaseRows   int
	SampleRows int
	RowsSeen   int
	Seq        int
}

// ErrCursorMismatch reports a resume cursor inconsistent with the stream it
// claims to continue: coordinates that don't name a valid increment of the
// schedule, a snapshot prefix the generation never had, or a stream that
// already completed.
var ErrCursorMismatch = errors.New("core: cursor does not match a resumable stream position")

// ExecuteProgressive runs one SQL query as an online-aggregation stream:
// yield is invoked once per increment with a complete Result (raw and
// improved cells for every group) and its Progress. The stream stops when
// the sample is exhausted (the Final increment, which is then recorded into
// the synopsis exactly as Execute would record it), when the raw confidence
// interval meets opts.TargetCI (Progress.TargetMet; nothing recorded), when
// yield returns false (accuracy is good enough — nothing is recorded, since
// a partial prefix must not teach the synopsis a full-sample answer), or
// when ctx is cancelled between increments (client gone; nothing recorded,
// error returned). Unsupported queries return a terminal Result without
// yielding. The stream's sample generation is pinned against replay-horizon
// eviction until it returns.
func (s *System) ExecuteProgressive(ctx context.Context, sql string, opts ProgressiveOptions, yield func(*Result, Progress) bool) (*Result, error) {
	view, release := s.engine.AcquirePinned()
	defer release()
	return s.runProgressive(ctx, sql, opts, view, view.Epoch, 0, -1, false, yield)
}

// ExecuteProgressiveFrom resumes an interrupted progressive stream from its
// cursor: the cursor's generation is re-pinned (Engine.PinGen — an evicted
// generation fails with aqp.ErrGenEvicted so the serving layer can tell the
// client to restart), a fresh InferSnapshot is taken, and the increment
// loop is entered mid-sample by folding the cursor prefix once. Provided
// the synopsis has not learned in between, every resumed increment is
// bit-identical to the one the uninterrupted stream would have emitted at
// the same budget — raw cells unconditionally, improved cells because the
// snapshot pins the same published states. opts must carry the original
// stream's schedule parameters (the serving layer enforces this with a
// request fingerprint); a cursor that does not name increment opts'
// schedule[cur.Seq] fails with ErrCursorMismatch.
func (s *System) ExecuteProgressiveFrom(ctx context.Context, sql string, opts ProgressiveOptions, cur ProgressiveCursor, yield func(*Result, Progress) bool) (*Result, error) {
	if cur.RowsSeen < 0 || cur.Seq < 0 || cur.BaseRows < 0 || cur.SampleRows <= 0 {
		return nil, fmt.Errorf("cursor (gen %d, seq %d, rows %d/%d of base %d) is malformed: %w",
			cur.SampleGen, cur.Seq, cur.RowsSeen, cur.SampleRows, cur.BaseRows, ErrCursorMismatch)
	}
	view, release, err := s.engine.PinGen(cur.SampleGen, cur.BaseRows, cur.SampleRows)
	if err != nil {
		return nil, err
	}
	defer release()
	// SnapshotAt clamps silently; a cursor naming rows the generation never
	// had must fail loudly instead of resuming against a different prefix.
	if view.SampleRows != cur.SampleRows || view.BaseRows != cur.BaseRows {
		return nil, fmt.Errorf("generation %d holds a (%d base, %d sample) prefix, cursor names (%d, %d): %w",
			cur.SampleGen, view.BaseRows, view.SampleRows, cur.BaseRows, cur.SampleRows, ErrCursorMismatch)
	}
	if cur.RowsSeen >= cur.SampleRows {
		return nil, fmt.Errorf("cursor at row %d of %d: stream already complete: %w", cur.RowsSeen, cur.SampleRows, ErrCursorMismatch)
	}
	return s.runProgressive(ctx, sql, opts, view, cur.Epoch, cur.RowsSeen, cur.Seq, true, yield)
}

// runProgressive is the shared increment loop behind ExecuteProgressive
// (startRows 0, startSeq -1) and ExecuteProgressiveFrom. The caller owns
// the view's pin.
func (s *System) runProgressive(ctx context.Context, sql string, opts ProgressiveOptions, view *aqp.View, epoch uint64, startRows, startSeq int, resumed bool, yield func(*Result, Progress) bool) (*Result, error) {
	verdict := s.Verdict()
	pl, res, err := s.plan(view, sql, obs.ModeProgressive, !resumed)
	if err != nil || pl == nil {
		return res, err
	}
	if err := s.answerSet(pl, obs.ModeProgressive, !resumed); err != nil {
		return nil, err
	}
	if !resumed {
		s.bumpStats(func(st *SystemStats) { st.Snippets += len(pl.snips) })
	}
	sched := opts.Schedule
	if len(sched) == 0 {
		sched = aqp.PrefixSchedule(view.SampleRows, opts.FirstRows)
	}
	if resumed {
		// The cursor must name an increment of this exact schedule, or the
		// resumed chunks could never line up with the original stream's.
		if startSeq >= len(sched) || sched[startSeq] != startRows {
			return nil, fmt.Errorf("cursor (seq %d, rows %d) does not lie on the stream's schedule: %w",
				startSeq, startRows, ErrCursorMismatch)
		}
		sched = sched[startSeq+1:]
	}
	// The raw half of each increment comes from the statement's scan-memo
	// entry when an earlier stream on this snapshot stored that prefix, and
	// from a ProgressiveScan otherwise — created at the first miss, at the
	// position the stream has reached, so a stream that hits throughout
	// scans nothing. Step(P) equals a fresh EvalPrefix(P) whatever steps
	// came before, so the two sources interleave freely.
	memo := s.memo.entry(strings.TrimSpace(sql))
	keys := make([]string, len(pl.snips))
	for i, sn := range pl.snips {
		keys[i] = sn.Key()
	}
	grouped := len(pl.stmt.GroupBy) > 0
	var ps *aqp.ProgressiveScan
	pos, seq, missed := startRows, startSeq, false // pos, seq: the last emitted increment's
	emitted := 0
	defer func() {
		s.bumpStats(func(st *SystemStats) {
			if resumed {
				st.Resumed++
			} else {
				st.Progressive++
			}
			st.Increments += emitted
		})
		// One memo outcome per stream: reused only if no increment scanned.
		outcome, scanned := aqp.FoldReused, 0
		if missed {
			outcome = aqp.FoldFull
		}
		if ps != nil {
			scanned = ps.Scanned()
		}
		s.countScanMemo(outcome, scanned)
	}()

	snap := verdict.SnapshotFor(pl.snips)
	var inferNS int64
	var last *Result
	for _, prefix := range sched {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// ProgressiveScan.Step's clamp: never past the sample, never back.
		rows := max(min(prefix, view.SampleRows), pos)
		tScan := time.Now()
		inc, ok := memo.streamLookup(view, keys, rows)
		if !ok {
			if ps == nil {
				// The workers cap goes in up front so the entry fold — the
				// O(rows) scan a resume or a late miss pays — honors it too.
				ps = pl.progressive(pos, seq, opts.Workers)
			}
			inc = ps.Step(rows)
			memo.streamStore(view, keys, inc)
			missed = true
		}
		// The stored increment carries the Seq of the stream that scanned
		// it, and ps skipped the increments served from the memo.
		inc.Seq = seq + 1
		// A memo lookup is this increment's scan stage, as a reused one-shot
		// fold's is.
		view.ObserveScan(obs.ModeProgressive, grouped, tScan)
		pos, seq = inc.Rows, inc.Seq
		r := newResult(sql, view, epoch)
		overhead, improvedCount, err := pl.answer(r, inc, snap.infer)
		if err != nil {
			return nil, err
		}
		inferNS += overhead.Nanoseconds()
		if s.cfg.Stages != nil {
			s.observeStage(obs.StageInfer, obs.ModeProgressive, grouped, overhead)
		}
		r.Overhead = time.Duration(inferNS)
		emitted++
		last = r
		// Final means the sample really was exhausted (inc.Final), never
		// merely "last schedule entry": an explicit short Schedule must not
		// record its partial-prefix estimate as a full-sample answer.
		if inc.Final {
			// Full sample consumed: the raw answers are exactly what Execute
			// would have recorded. If the original stream also completed
			// server-side before the client resumed, this re-record is
			// idempotent — the synopsis dedupes by snippet key, keeping the
			// lower-error answer (model.record), so nothing is counted twice.
			for j, sn := range pl.snips {
				if inc.Valid[j] {
					verdict.Record(sn, aqp.Sanitize(inc.Estimates[j]))
				}
			}
			s.bumpStats(func(st *SystemStats) {
				st.Improved += improvedCount
				st.InferenceNS += inferNS
			})
		}
		targetMet := !inc.Final && s.targetMet(r.Rows, opts)
		cont := yield(r, Progress{
			Seq: inc.Seq, Rows: inc.Rows, SampleRows: view.SampleRows,
			SimTime: inc.SimTime, Final: inc.Final, TargetMet: targetMet,
		})
		if inc.Final || targetMet || !cont {
			return r, nil
		}
	}
	// An explicit Schedule ended before the sample was exhausted: return the
	// last partial answer; nothing was recorded.
	return last, nil
}

// targetMet reports whether every result cell's raw confidence interval
// satisfies the stream's error target. Cells whose estimate is not yet
// usable carry a sanitized MaxFloat64 standard error, so they keep the
// stream running rather than vacuously passing.
func (s *System) targetMet(rows []ResultRow, opts ProgressiveOptions) bool {
	if opts.TargetCI <= 0 || len(rows) == 0 {
		return false
	}
	for _, row := range rows {
		for _, cell := range row.Cells {
			ci := Alpha95 * cell.Raw.StdErr
			bound := opts.TargetCI
			if opts.TargetRelative {
				bound *= math.Abs(cell.Raw.Value)
			}
			if !(ci <= bound) { // NaN-safe: a NaN CI never meets the target
				return false
			}
		}
	}
	return true
}

// ExecuteViewPrefix replays the increment a progressive query emitted at a
// given sample prefix: one fresh scan of [0, rows) against an explicit
// (usually ViewAtGen-reconstructed) view, inferred against one snapshot of
// the published model states. Replays are side-effect-free — nothing is
// recorded and no counters move — and read neither the scan memo nor a
// standing plan's fold, so they audit both. Raw answers are float-identical
// to the streamed increment; improved answers reflect the synopsis at
// replay time, which has typically learned more since.
func (s *System) ExecuteViewPrefix(view *aqp.View, sql string, rows int) (*Result, error) {
	pl, res, err := s.plan(view, sql, obs.ModeProgressive, false)
	if err != nil || pl == nil {
		return res, err
	}
	if err := s.answerSet(pl, obs.ModeProgressive, false); err != nil {
		return nil, err
	}
	snap := s.Verdict().SnapshotFor(pl.snips)
	if _, _, err := pl.answer(res, pl.progressive(0, -1, 0).Step(rows), snap.infer); err != nil {
		return nil, err
	}
	return res, nil
}
