package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/aqp"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/query"
)

// Continuous queries: a subscriber registers a SQL statement once and is
// pushed a fresh model-improved estimate whenever an append, a sample
// rebuild or a training pass changes the answer materially. The economics
// are shared-scan: standing plans are deduplicated by their (trimmed) SQL
// text, every notify batch runs ONE incremental pass per unique plan — the
// plan's aqp.CarriedFold, whose banks (per snippet, or per group with
// incremental group discovery) extend across appends — and the result fans
// out through a notify.Hub to any number of subscribers, each behind a
// bounded coalescing queue with its own push threshold and debounce.
// Threshold gating is per-(group, cell): a group appearing or disappearing,
// or the truncation flag flipping, always pushes (the per-cell comparison is
// meaningless across different row sets).
//
// Every pushed Result is auditable: its raw and improved cells are
// bit-identical to a fresh one-shot replay at its pinned provenance,
//
//	sys.ExecuteView(engine.ViewAtGen(SampleGen, BaseRows, SampleRows), sql)
//
// because the carried fold folds the one merge tree every scan folds (see
// aqp.CarriedFold) and inference runs against the
// same published model states the replay will read — notify passes run
// after the mutation's model updates publish and record nothing themselves,
// and the plan's carried covariance memo (planInfer) is signature-guarded to
// be bit-identical to the fresh inference the replay performs.

// Push reasons carried on every update.
const (
	PushReasonSubscribe = "subscribe" // the initial state push at Subscribe
	PushReasonAppend    = "append"
	PushReasonRebuild   = "rebuild"
	PushReasonTrain     = "train"
)

// SubscribeOptions tunes one standing subscription.
type SubscribeOptions struct {
	// DeltaCI, when positive, suppresses pushes until some composed cell's
	// confidence half-width (at the system's reporting confidence) has
	// moved by more than this absolute amount since the last push.
	DeltaCI float64
	// DeltaRel, when positive, suppresses pushes until some cell's
	// improved estimate has moved by more than this fraction of its
	// previously pushed magnitude. With both thresholds zero every notify
	// batch pushes.
	DeltaRel float64
	// Queue bounds the subscriber's update queue (<= 0 selects
	// notify.DefaultQueue). A full queue coalesces to the latest update
	// rather than blocking the hub.
	Queue int
	// MinPushInterval debounces pushes: after a push, further updates are
	// suppressed (counted as NotifyDebounced) until the interval has
	// elapsed on the system clock (Config.Now — fake-clock testable).
	MinPushInterval time.Duration
}

// PushUpdate is one update delivered to a subscriber. Seq is per-
// subscriber, assigned at push time: strictly monotone, and gapless unless
// the subscriber's queue coalesced (a gap tells the consumer it missed
// intermediate updates). Result carries the full composed answer with its
// replay provenance.
type PushUpdate struct {
	Seq    int
	Reason string
	Result *Result
}

// Subscription is one registered standing query. Read updates with Next;
// tear down with Close (or System.Unsubscribe).
type Subscription struct {
	sys  *System
	plan *standingPlan
	sub  *notify.Sub[PushUpdate]
	opts SubscribeOptions

	// The fields below are guarded by the system's standing.mu.
	seq       int
	lastPush  time.Time
	lastCells []pushedCell
	lastKeys  []string // per-row group keys of the last push, row order
	lastTrunc bool
	hasLast   bool
	removed   bool
}

// pushedCell is the per-cell state the threshold check compares against.
type pushedCell struct{ est, ci float64 }

// Next blocks until an update, subscription close (ok=false; see
// CloseReason) or ctx cancellation (ok=false).
func (sub *Subscription) Next(ctx context.Context) (PushUpdate, bool) {
	return sub.sub.Next(ctx)
}

// TryNext pops a buffered update without blocking.
func (sub *Subscription) TryNext() (PushUpdate, bool) { return sub.sub.TryNext() }

// CloseReason is the terminal reason ("unsubscribe", "drain", ...) once
// the subscription is closed; "" while live.
func (sub *Subscription) CloseReason() string { return sub.sub.CloseReason() }

// Close unsubscribes (idempotent).
func (sub *Subscription) Close() { sub.sys.Unsubscribe(sub) }

// standingPlan is one deduplicated standing query: its pinned view (the
// generation is held against eviction between notify batches), the carried
// fold — the type the scan memo carries for one-shot queries, here silent
// on the stage timer — the carried inference memo, and the subscribers
// sharing it.
type standingPlan struct {
	sql     string
	view    *aqp.View
	release func()
	pl      *queryPlan
	fold    *aqp.CarriedFold
	infer   planInfer
	lastRes *Result
	subs    []*Subscription
}

// standingState is the System-embedded continuous-query state.
type standingState struct {
	mu    sync.Mutex
	hub   *notify.Hub[PushUpdate]
	plans map[string]*standingPlan
	// hook observes each notify batch's fan-out latency (reason, duration);
	// the serving layer wires its histogram here. Set at boot.
	hook func(reason string, d time.Duration)
}

// SetNotifyHook installs the fan-out latency observer (one call per notify
// batch). Like the engine's stage timer, set it at boot.
func (s *System) SetNotifyHook(fn func(reason string, d time.Duration)) {
	s.standing.mu.Lock()
	s.standing.hook = fn
	s.standing.mu.Unlock()
}

// ActiveSubscriptions is the number of live standing subscriptions.
func (s *System) ActiveSubscriptions() int {
	s.standing.mu.Lock()
	defer s.standing.mu.Unlock()
	if s.standing.hub == nil {
		return 0
	}
	return s.standing.hub.Active()
}

// Subscribe registers sql as a standing query. The subscription
// immediately receives one update (seq 0, reason "subscribe") with the
// current full-sample answer; thereafter System.Append, RebuildSample and
// Train push refreshed answers that pass the subscription's thresholds.
// Plans are shared: K subscribers on the same SQL cost one carried scan
// per notify batch, not K. GROUP BY statements stand too: the grouped
// one-scan kernel folds incrementally (a grouped aqp.CarriedFold), newly
// appearing groups join the carried fold with an exact zero backfill, and
// a changed row set (group birth/death, Nmax truncation flips —
// Result.GroupsTruncated) always pushes regardless of thresholds.
func (s *System) Subscribe(sql string, opts SubscribeOptions) (*Subscription, error) {
	key := strings.TrimSpace(sql)
	st := &s.standing
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.hub == nil {
		st.hub = notify.NewHub[PushUpdate]()
	}
	if st.plans == nil {
		st.plans = make(map[string]*standingPlan)
	}
	p, ok := st.plans[key]
	if !ok {
		var err error
		p, err = s.newStandingPlanLocked(key)
		if err != nil {
			return nil, err
		}
		st.plans[key] = p
	}
	sub := &Subscription{sys: s, plan: p, opts: opts, sub: st.hub.Subscribe(opts.Queue)}
	p.subs = append(p.subs, sub)
	s.bumpStats(func(ss *SystemStats) { ss.Subscribes++ })
	s.pushLocked(sub, p.lastRes, PushReasonSubscribe, s.cfg.Now())
	return sub, nil
}

// Unsubscribe tears one subscription down: it stops receiving updates
// (already-queued ones still drain to Next), and the last subscriber of a
// plan releases the plan's generation pin. Idempotent.
func (s *System) Unsubscribe(sub *Subscription) {
	st := &s.standing
	st.mu.Lock()
	if sub.removed {
		st.mu.Unlock()
		return
	}
	sub.removed = true
	p := sub.plan
	for i, x := range p.subs {
		if x == sub {
			p.subs = append(p.subs[:i], p.subs[i+1:]...)
			break
		}
	}
	last := len(p.subs) == 0
	if last {
		delete(st.plans, p.sql)
	}
	hub := st.hub
	st.mu.Unlock()
	hub.Unsubscribe(sub.sub, "unsubscribe")
	if last {
		p.release()
	}
}

// CloseSubscriptions ends every standing subscription with the given
// terminal reason (the serving layer's drain passes "drain"): queued
// updates drain to their consumers first, then Next reports the close.
// All generation pins are released. The standing state fully resets: a
// later Subscribe starts a fresh hub and plan set rather than inheriting
// the closed hub (whose Subscribe returns already-closed subs).
func (s *System) CloseSubscriptions(reason string) {
	st := &s.standing
	st.mu.Lock()
	hub := st.hub
	plans := st.plans
	st.hub = nil
	st.plans = nil
	for _, p := range plans {
		for _, sub := range p.subs {
			sub.removed = true
		}
		p.subs = nil
	}
	st.mu.Unlock()
	if hub != nil {
		hub.CloseAll(reason)
	}
	for _, p := range plans {
		p.release()
	}
}

// newStandingPlanLocked plans sql against a freshly pinned view and pays
// the plan's one full fold. Caller holds standing.mu.
func (s *System) newStandingPlanLocked(sql string) (*standingPlan, error) {
	p := &standingPlan{sql: sql, release: func() {}, fold: aqp.NewCarriedFold(false)}
	if err := s.refreshPlanLocked(p); err != nil {
		p.release()
		return nil, err
	}
	return p, nil
}

// notifyStanding is the shared fan-out pass behind Append, RebuildSample
// and Train: one incremental scan per unique plan, then threshold-gated
// pushes to that plan's subscribers. Callers invoke it after their model
// updates have published, so a pushed Result and its later replay infer
// identically.
func (s *System) notifyStanding(reason string) {
	st := &s.standing
	st.mu.Lock()
	if len(st.plans) == 0 {
		st.mu.Unlock()
		return
	}
	start := time.Now()
	s.bumpStats(func(ss *SystemStats) { ss.NotifyBatches++ })
	now := s.cfg.Now()
	for _, p := range st.plans {
		if err := s.refreshPlanLocked(p); err != nil {
			// The plan can no longer evaluate (e.g. concurrent schema
			// change); keep its last state and skip this batch.
			continue
		}
		for _, sub := range p.subs {
			s.maybePushLocked(sub, p.lastRes, reason, now)
		}
	}
	hook := st.hook
	st.mu.Unlock()
	if hook != nil {
		hook(reason, time.Since(start))
	}
}

// refreshPlanLocked advances one standing plan to the engine's current
// state — from nothing, for a new plan: re-pin, re-plan (region bindings
// can shift as domains grow), extend the carried fold — which rebinds with
// one full fold when the sample generation swapped or the plan shape
// changed — and recompose the result. On the grouped path pl is
// materialized from the fold's discovered groups, so its snippet list and
// truncation flag match what a one-shot execution of the same view would
// plan. Caller holds standing.mu.
func (s *System) refreshPlanLocked(p *standingPlan) error {
	view, release := s.engine.AcquirePinned()
	pl, res, err := s.plan(view, p.sql, obs.ModeOneShot, false)
	if err == nil && pl == nil {
		err = fmt.Errorf("core: unsupported query cannot stand: %s", strings.Join(res.Reasons, "; "))
	}
	if err != nil {
		release()
		return err
	}
	fr, err := pl.scanCarried(p.fold, s.nmax())
	if err != nil {
		release()
		return err
	}
	s.bumpStats(func(ss *SystemStats) { ss.NotifyScans++ })
	p.release()
	p.view, p.release, p.pl = view, release, pl
	p.lastRes, err = s.composeStanding(p, fr.Update)
	return err
}

// composeStanding turns a plan's final Increment into a full Result — the
// answer step against a fresh snapshot of the published model states, with
// the covariance integrals served from the plan's carried signature-guarded
// memo (planInfer): bit-identical to the snapshot inference a replay runs,
// cheap on appends where no region bound or length-scale moved.
func (s *System) composeStanding(p *standingPlan, upd aqp.Increment) (*Result, error) {
	snap := s.Verdict().SnapshotFor(p.pl.snips)
	memos := p.infer.memosFor(p.pl.snips)
	res := newResult(p.sql, p.view, p.view.Epoch)
	_, _, err := p.pl.answer(res, upd, func(i int, sn *query.Snippet, raw query.ScalarEstimate) Improved {
		return inferOnMemo(snap.states[sn.Func()], sn, raw, snap.cfg, memos[i])
	})
	return res, err
}

// maybePushLocked pushes res to one subscriber if its debounce window has
// passed and some cell moved past its thresholds. Caller holds
// standing.mu.
func (s *System) maybePushLocked(sub *Subscription, res *Result, reason string, now time.Time) {
	if sub.opts.MinPushInterval > 0 && now.Sub(sub.lastPush) < sub.opts.MinPushInterval {
		s.bumpStats(func(ss *SystemStats) { ss.NotifyDebounced++ })
		return
	}
	if !sub.moved(res) {
		return
	}
	s.pushLocked(sub, res, reason, now)
}

// pushLocked delivers unconditionally, assigning the subscriber's next
// seq. Caller holds standing.mu.
func (s *System) pushLocked(sub *Subscription, res *Result, reason string, now time.Time) {
	upd := PushUpdate{Seq: sub.seq, Reason: reason, Result: res}
	coalesced, ok := sub.sub.Push(upd)
	if !ok {
		return // closed mid-teardown; nothing delivered, seq unconsumed
	}
	sub.seq++
	sub.lastPush = now
	sub.recordCells(res)
	s.bumpStats(func(ss *SystemStats) {
		ss.NotifyPushes++
		if coalesced {
			ss.NotifyCoalesced++
		}
	})
}

// moved reports whether res differs enough from the last pushed state to
// clear the subscription's thresholds. Structure changes always push —
// a group born or died (the per-row group-key sequence changed), the
// truncation flag flipped, or the cell count moved — because per-cell
// deltas are meaningless across different row sets. With both thresholds
// zero every batch pushes.
func (sub *Subscription) moved(res *Result) bool {
	if !sub.hasLast {
		return true
	}
	if sub.lastTrunc != res.GroupsTruncated {
		return true
	}
	keys := groupKeys(res)
	if len(keys) != len(sub.lastKeys) {
		return true
	}
	for i, k := range keys {
		if k != sub.lastKeys[i] {
			return true
		}
	}
	if sub.opts.DeltaCI <= 0 && sub.opts.DeltaRel <= 0 {
		return true
	}
	cells := flattenCells(res)
	if len(cells) != len(sub.lastCells) {
		return true
	}
	for i, c := range cells {
		prev := sub.lastCells[i]
		if sub.opts.DeltaRel > 0 {
			base := math.Abs(prev.est)
			if base < 1e-12 {
				base = 1e-12
			}
			if math.Abs(c.est-prev.est) > sub.opts.DeltaRel*base {
				return true
			}
		}
		if sub.opts.DeltaCI > 0 && math.Abs(c.ci-prev.ci) > sub.opts.DeltaCI {
			return true
		}
	}
	return false
}

func (sub *Subscription) recordCells(res *Result) {
	sub.lastCells = flattenCells(res)
	sub.lastKeys = groupKeys(res)
	sub.lastTrunc = res.GroupsTruncated
	sub.hasLast = true
}

// groupKeys projects a Result onto its per-row group identities (nil for
// the single ungrouped row) — the row-set identity the structure
// check compares.
func groupKeys(res *Result) []string {
	if len(res.Rows) == 1 && len(res.Rows[0].Group) == 0 {
		return nil
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = string(query.AppendGroupID(nil, row.Group))
	}
	return out
}

// flattenCells projects a Result onto the (estimate, CI half-width) pairs
// the threshold check compares — the improved answer, like the pushed
// chunk's headline fields. The half-width saturates like the chunk's, so
// two cells with no usable rows compare equal rather than NaN.
func flattenCells(res *Result) []pushedCell {
	var out []pushedCell
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			out = append(out, pushedCell{est: c.Improved.Value, ci: query.Saturate(Alpha95 * c.Improved.StdErr)})
		}
	}
	return out
}
