package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/aqp"
	"repro/internal/randx"
	"repro/internal/storage"
)

// standingQueries are the ungrouped members of the concurrent workload —
// standing subscriptions reject GROUP BY.
var standingQueries = []string{
	"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 15",
	"SELECT COUNT(*) FROM sales WHERE region = 'east'",
	"SELECT SUM(revenue) FROM sales WHERE week >= 20 AND week <= 40",
}

// replayPush audits one pushed update: its raw AND improved cells must be
// bit-identical to a fresh one-shot replay at the pinned (sample_gen,
// base_rows, sample_rows) triple. This is the headline property of
// continuous queries — a push is never an approximation of what a query
// would have returned; it IS what the query returns.
func replayPush(t *testing.T, sys *System, sql string, res *Result) {
	t.Helper()
	view := sys.Engine().ViewAtGen(res.SampleGen, res.BaseRows, res.SampleRows)
	if view == nil {
		t.Fatalf("ViewAtGen(%d, %d, %d) = nil: pinned generation evicted", res.SampleGen, res.BaseRows, res.SampleRows)
	}
	rep, err := sys.ExecuteView(view, sql)
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, wantRaw := rawCells(rep), rawCells(res)
	gotImp, wantImp := improvedCells(rep), improvedCells(res)
	if len(gotRaw) != len(wantRaw) || len(gotRaw) == 0 {
		t.Fatalf("replay shape for %q: %d vs %d raw cells", sql, len(gotRaw), len(wantRaw))
	}
	for i := range gotRaw {
		if gotRaw[i] != wantRaw[i] {
			t.Fatalf("raw replay mismatch for %q at gen=%d cell %d: pushed %v, replay %v",
				sql, res.SampleGen, i, wantRaw[i], gotRaw[i])
		}
	}
	for i := range gotImp {
		if gotImp[i] != wantImp[i] {
			t.Fatalf("improved replay mismatch for %q at gen=%d cell %d: pushed %v, replay %v",
				sql, res.SampleGen, i, wantImp[i], gotImp[i])
		}
	}
}

// TestSubscribeReplayEqualityProperty is the property test: under a
// seeded-random interleaving of append / rebuild / train mutations, every
// update pushed to every zero-threshold subscriber replays bit-identically
// via ViewAtGen + ExecuteView, per-subscriber seq is gapless and strictly
// monotone, and every push reason matches the mutation that caused it.
func TestSubscribeReplayEqualityProperty(t *testing.T) {
	sys := systemFixture(t, 20000, 0.2)
	// Seed the synopsis BEFORE subscribing: Execute records snippets and
	// Train publishes models, so pushes exercise the improved path too.
	for _, q := range standingQueries {
		if _, err := sys.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}

	subs := make([]*Subscription, len(standingQueries))
	nextSeq := make([]int, len(standingQueries))
	for i, q := range standingQueries {
		sub, err := sys.Subscribe(q, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}

	// drainOne pops exactly one buffered update per subscriber and audits
	// it — immediately, before the next mutation can move the model states
	// the pushed inference ran against.
	drainOne := func(wantReason string) {
		t.Helper()
		for i, sub := range subs {
			upd, ok := sub.TryNext()
			if !ok {
				t.Fatalf("subscriber %d has no buffered update after %q", i, wantReason)
			}
			if upd.Reason != wantReason {
				t.Fatalf("subscriber %d: reason %q, want %q", i, upd.Reason, wantReason)
			}
			if upd.Seq != nextSeq[i] {
				t.Fatalf("subscriber %d: seq %d, want %d (gapless, monotone)", i, upd.Seq, nextSeq[i])
			}
			nextSeq[i]++
			replayPush(t, sys, standingQueries[i], upd.Result)
			if _, extra := sub.TryNext(); extra {
				t.Fatalf("subscriber %d: more than one update for one mutation", i)
			}
		}
	}
	drainOne(PushReasonSubscribe)

	rng := randx.New(321)
	mutations := 0
	for step := 0; step < 25; step++ {
		switch rng.Intn(4) {
		case 0, 1: // appends dominate, as in a streaming deployment
			if _, err := sys.Append(salesBatch(t, 50+rng.Intn(900), int64(7000+step))); err != nil {
				t.Fatal(err)
			}
			drainOne(PushReasonAppend)
		case 2:
			sys.RebuildSample()
			drainOne(PushReasonRebuild)
		case 3:
			if err := sys.Train(); err != nil {
				t.Fatal(err)
			}
			drainOne(PushReasonTrain)
		}
		mutations++
	}

	st := sys.StatsSnapshot()
	if st.NotifyBatches != mutations {
		t.Fatalf("NotifyBatches=%d, want %d (one per mutation)", st.NotifyBatches, mutations)
	}
	// One shared scan per unique plan per batch, plus each plan's creation
	// fold — never one per subscriber.
	if want := len(standingQueries) * (mutations + 1); st.NotifyScans != want {
		t.Fatalf("NotifyScans=%d, want %d", st.NotifyScans, want)
	}
	if want := len(standingQueries) * (mutations + 1); st.NotifyPushes != want {
		t.Fatalf("NotifyPushes=%d, want %d", st.NotifyPushes, want)
	}
	for _, sub := range subs {
		sub.Close()
	}
	if n := sys.ActiveSubscriptions(); n != 0 {
		t.Fatalf("ActiveSubscriptions=%d after teardown", n)
	}
	if n := sys.Engine().PinnedGens(); n != 0 {
		t.Fatalf("PinnedGens=%d after teardown: standing plans leaked pins", n)
	}
}

// TestSubscribeSharedScanDedup pins the shared-scan economics: K
// subscribers on ONE SQL cost exactly one incremental scan per notify
// batch (plus the plan's single creation fold), while every subscriber
// still receives its own update.
func TestSubscribeSharedScanDedup(t *testing.T) {
	sys := systemFixture(t, 10000, 0.2)
	sql := standingQueries[0]
	const K = 6
	subs := make([]*Subscription, K)
	for i := range subs {
		sub, err := sys.Subscribe(sql, SubscribeOptions{Queue: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	const appends = 5
	for i := 0; i < appends; i++ {
		if _, err := sys.Append(salesBatch(t, 200, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.StatsSnapshot()
	if st.NotifyScans != appends+1 {
		t.Fatalf("NotifyScans=%d, want %d: the scan must be shared across %d subscribers", st.NotifyScans, appends+1, K)
	}
	if st.NotifyBatches != appends {
		t.Fatalf("NotifyBatches=%d, want %d", st.NotifyBatches, appends)
	}
	if st.NotifyPushes != K*(appends+1) {
		t.Fatalf("NotifyPushes=%d, want %d", st.NotifyPushes, K*(appends+1))
	}
	for _, sub := range subs {
		for n := 0; ; n++ {
			if _, ok := sub.TryNext(); !ok {
				if n != appends+1 {
					t.Fatalf("subscriber drained %d updates, want %d", n, appends+1)
				}
				break
			}
		}
	}
}

// TestSubscribeThresholds: a subscriber with an enormous relative
// threshold receives only the initial state push; a zero-threshold sibling
// on the same plan receives every batch. Small appends cannot move an
// AVG's estimate by 10^9 of itself.
func TestSubscribeThresholds(t *testing.T) {
	sys := systemFixture(t, 10000, 0.2)
	sql := standingQueries[0]
	quiet, err := sys.Subscribe(sql, SubscribeOptions{DeltaRel: 1e9, DeltaCI: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	chatty, err := sys.Subscribe(sql, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer chatty.Close()
	for i := 0; i < 3; i++ {
		if _, err := sys.Append(salesBatch(t, 100, int64(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	if upd, ok := quiet.TryNext(); !ok || upd.Reason != PushReasonSubscribe {
		t.Fatalf("quiet subscriber's initial push: ok=%v upd=%+v", ok, upd)
	}
	if upd, ok := quiet.TryNext(); ok {
		t.Fatalf("quiet subscriber was pushed %+v despite thresholds", upd)
	}
	for want := 0; want < 4; want++ { // subscribe + 3 appends
		upd, ok := chatty.TryNext()
		if !ok || upd.Seq != want {
			t.Fatalf("chatty subscriber: got (seq %d, %v), want seq %d", upd.Seq, ok, want)
		}
	}
}

// TestSubscribeDebounceFakeClock drives the push debounce entirely on an
// injected clock — zero sleeps. Updates inside the window are suppressed
// (and counted); advancing the fake clock past the window re-arms pushes.
func TestSubscribeDebounceFakeClock(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("sales", schema)
	rng := randx.New(9)
	for i := 0; i < 5000; i++ {
		w := rng.Uniform(0, 52)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(w), storage.Str("east"), storage.Num(50 + 2*w),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sample, err := aqp.BuildSample(tb, 0.2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), Config{
		Now: func() time.Time { return now },
	})

	sub, err := sys.Subscribe(standingQueries[0], SubscribeOptions{MinPushInterval: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, ok := sub.TryNext(); !ok {
		t.Fatal("no initial push")
	}

	// Both appends land inside the 10 s window after the initial push.
	for i := 0; i < 2; i++ {
		now = now.Add(time.Second)
		if _, err := sys.Append(salesBatch(t, 100, int64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	if upd, ok := sub.TryNext(); ok {
		t.Fatalf("debounced window leaked a push: %+v", upd)
	}
	if st := sys.StatsSnapshot(); st.NotifyDebounced != 2 {
		t.Fatalf("NotifyDebounced=%d, want 2", st.NotifyDebounced)
	}

	// Step past the window: the next append pushes again.
	now = now.Add(time.Minute)
	if _, err := sys.Append(salesBatch(t, 100, 77)); err != nil {
		t.Fatal(err)
	}
	upd, ok := sub.TryNext()
	if !ok || upd.Reason != PushReasonAppend || upd.Seq != 1 {
		t.Fatalf("post-window push: ok=%v upd=%+v", ok, upd)
	}
	replayPush(t, sys, standingQueries[0], upd.Result)
}

// TestSubscribeRejections: unparsable/unsupported SQL is refused at
// Subscribe time — no half-registered subscription, no leaked generation
// pin. (Grouped statements stand since the grouped fold landed; see
// TestGroupedSubscribeReplayEqualityProperty.)
func TestSubscribeRejections(t *testing.T) {
	sys := systemFixture(t, 5000, 0.2)
	for _, sql := range []string{
		"SELECT nope FROM sales",
		"this is not sql",
	} {
		if sub, err := sys.Subscribe(sql, SubscribeOptions{}); err == nil {
			sub.Close()
			t.Fatalf("Subscribe(%q) succeeded", sql)
		}
	}
	if n := sys.ActiveSubscriptions(); n != 0 {
		t.Fatalf("ActiveSubscriptions=%d after rejections", n)
	}
	if n := sys.Engine().PinnedGens(); n != 0 {
		t.Fatalf("PinnedGens=%d after rejections: failed plans leaked pins", n)
	}
}

// TestSubscribeCoalesceNeverBlocks: a subscriber that never reads, behind
// a queue of 1, cannot block mutations or starve a healthy sibling; its
// queue holds the latest update and the coalesce counter records the
// overwrites. Seq gaps at the stalled consumer tell it what it missed.
func TestSubscribeCoalesceNeverBlocks(t *testing.T) {
	sys := systemFixture(t, 10000, 0.2)
	sql := standingQueries[1]
	stalled, err := sys.Subscribe(sql, SubscribeOptions{Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	healthy, err := sys.Subscribe(sql, SubscribeOptions{Queue: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	const appends = 6
	for i := 0; i < appends; i++ {
		if _, err := sys.Append(salesBatch(t, 150, int64(800+i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.StatsSnapshot(); st.NotifyCoalesced != appends {
		// Initial push filled the 1-slot queue; every append overwrote it.
		t.Fatalf("NotifyCoalesced=%d, want %d", st.NotifyCoalesced, appends)
	}
	upd, ok := stalled.TryNext()
	if !ok || upd.Seq != appends {
		t.Fatalf("stalled queue holds seq %d (ok=%v), want the latest seq %d", upd.Seq, ok, appends)
	}
	if _, extra := stalled.TryNext(); extra {
		t.Fatal("stalled queue held more than its one slot")
	}
	replayPush(t, sys, sql, upd.Result)
	for want := 0; want <= appends; want++ {
		u, ok := healthy.TryNext()
		if !ok || u.Seq != want {
			t.Fatalf("healthy subscriber: got (seq %d, %v), want seq %d", u.Seq, ok, want)
		}
	}
}

// TestSubscribeSurvivesRebuildRebind: a rebuild swaps the sample
// generation out from under every carried fold; the notify pass must
// rebind (one full re-fold per plan) and keep pushing replayable results,
// and the old generation's pin must move forward rather than leak.
func TestSubscribeSurvivesRebuildRebind(t *testing.T) {
	sys := systemFixture(t, 10000, 0.2)
	sql := standingQueries[2]
	sub, err := sys.Subscribe(sql, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	first, _ := sub.TryNext()

	gen, _ := sys.RebuildSample()
	upd, ok := sub.TryNext()
	if !ok || upd.Reason != PushReasonRebuild {
		t.Fatalf("rebuild push: ok=%v reason=%q", ok, upd.Reason)
	}
	if upd.Result.SampleGen != gen || upd.Result.SampleGen == first.Result.SampleGen {
		t.Fatalf("rebuild push pins gen %d, want the new gen %d", upd.Result.SampleGen, gen)
	}
	replayPush(t, sys, sql, upd.Result)

	if _, err := sys.Append(salesBatch(t, 300, 31)); err != nil {
		t.Fatal(err)
	}
	upd, ok = sub.TryNext()
	if !ok || upd.Reason != PushReasonAppend {
		t.Fatalf("post-rebuild append push: ok=%v reason=%q", ok, upd.Reason)
	}
	replayPush(t, sys, sql, upd.Result)

	sub.Close()
	if n := sys.Engine().PinnedGens(); n != 0 {
		t.Fatalf("PinnedGens=%d after close", n)
	}
}

// BenchmarkNotifyFanout measures one 1000-row append into a 50 000-row
// sample with K idle subscribers standing on one plan: the engine append,
// Lemma 3's adjustment and the notify batch. Standing plans are
// deduplicated and share one incremental scan per batch, so scans/op is 1
// for every K and ns/op grows only by the K queue inserts.
func BenchmarkNotifyFanout(b *testing.B) {
	batches := make([]*storage.Table, 8)
	for i := range batches {
		batches[i] = salesBatch(b, 1000, int64(100+i))
	}
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			sys := systemFixture(b, 100000, 0.5)
			for i := 0; i < k; i++ {
				// A one-slot queue nobody reads coalesces to the latest
				// update, so the hub never blocks.
				sub, err := sys.Subscribe(standingQueries[0], SubscribeOptions{Queue: 1})
				if err != nil {
					b.Fatal(err)
				}
				defer sub.Close()
			}
			before := sys.StatsSnapshot().NotifyScans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Append(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sys.StatsSnapshot().NotifyScans-before)/float64(b.N), "scans/op")
		})
	}
}
