package experiments

import (
	"fmt"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/storage"
)

func init() { register("notifybench", NotifyBench) }

// NotifyBench measures the continuous-query fan-out: the latency of one
// notify batch (shared incremental scan + threshold-gated pushes) as the
// subscriber count K grows. Because standing plans are deduplicated and
// the scan is shared, the batch cost should be nearly flat in K — pushes
// are queue inserts, the scan dominates. Not a paper artifact; it tracks
// the push path's cost on this hardware. Per-K ns/batch lands in
// Report.Metrics, which verdict-bench -json persists (BENCH_notify.json)
// — the CI perf-trajectory artifact for the notify subsystem.
func NotifyBench(o Options) (*Report, error) {
	rows := 100_000
	appends := 20
	if o.Scale == Full {
		rows = 500_000
		appends = 50
	}
	const sql = "SELECT AVG(v) FROM t WHERE x BETWEEN 10 AND 60"

	rep := &Report{
		ID:      "notifybench",
		Title:   "Continuous queries: notify-batch latency vs subscriber fan-out",
		Columns: []string{"subscribers", "appends", "batch p50-ish (mean)", "scans", "pushes"},
	}

	for _, k := range []int{1, 8, 64} {
		tb, err := progressiveBenchTable(rows, o.Seed)
		if err != nil {
			return nil, err
		}
		sample, err := aqp.BuildSample(tb, 0.5, 0, o.Seed+1)
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{})
		var total time.Duration
		var batches int
		sys.SetNotifyHook(func(_ string, d time.Duration) {
			total += d
			batches++
		})
		subs := make([]*core.Subscription, k)
		for i := range subs {
			// Large queues so no push blocks on coalescing bookkeeping; the
			// subscribers are idle (nobody reads), which is the worst case
			// for queue growth and the common case for open dashboards.
			if subs[i], err = sys.Subscribe(sql, core.SubscribeOptions{Queue: appends + 2}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < appends; i++ {
			batch, err := progressiveBenchTable(1000, o.Seed+int64(100+i))
			if err != nil {
				return nil, err
			}
			if _, err := sys.Append(batch); err != nil {
				return nil, err
			}
		}
		for _, sub := range subs {
			sub.Close()
		}
		if batches != appends {
			return nil, fmt.Errorf("notifybench: %d batches for %d appends", batches, appends)
		}
		st := sys.StatsSnapshot()
		mean := total / time.Duration(batches)
		rep.Add(fmt.Sprintf("%d", k), fmt.Sprintf("%d", appends),
			mean.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", st.NotifyScans), fmt.Sprintf("%d", st.NotifyPushes))
		rep.Metric(fmt.Sprintf("subs=%d/batchns", k), float64(mean.Nanoseconds()))
		rep.Metric(fmt.Sprintf("subs=%d/pushes", k), float64(st.NotifyPushes))
	}
	// The grouped fan-out: K subscribers on one GROUP BY plan over G groups.
	// The shared scan is the grouped discovery fold (per-group master
	// accumulators carried across appends), so the batch cost tracks G in
	// the push/compose step but stays flat in K like the flat case.
	const nGroups = 16
	const gsql = "SELECT cat, AVG(val), COUNT(*) FROM t GROUP BY cat"
	for _, k := range []int{1, 8, 64} {
		tb, err := groupedTable(rows, nGroups, o.Seed)
		if err != nil {
			return nil, err
		}
		sample, err := aqp.BuildSample(tb, 0.5, 0, o.Seed+1)
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{})
		var total time.Duration
		var batches int
		sys.SetNotifyHook(func(_ string, d time.Duration) {
			total += d
			batches++
		})
		subs := make([]*core.Subscription, k)
		for i := range subs {
			if subs[i], err = sys.Subscribe(gsql, core.SubscribeOptions{Queue: appends + 2}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < appends; i++ {
			batch, err := groupedTable(1000, nGroups, o.Seed+int64(500+i))
			if err != nil {
				return nil, err
			}
			if _, err := sys.Append(batch); err != nil {
				return nil, err
			}
		}
		for _, sub := range subs {
			sub.Close()
		}
		if batches != appends {
			return nil, fmt.Errorf("notifybench: grouped %d batches for %d appends", batches, appends)
		}
		st := sys.StatsSnapshot()
		mean := total / time.Duration(batches)
		rep.Add(fmt.Sprintf("%d (grouped ×%d)", k, nGroups), fmt.Sprintf("%d", appends),
			mean.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", st.NotifyScans), fmt.Sprintf("%d", st.NotifyPushes))
		rep.Metric(fmt.Sprintf("grouped-subs=%d/batchns", k), float64(mean.Nanoseconds()))
		rep.Metric(fmt.Sprintf("grouped-subs=%d/pushes", k), float64(st.NotifyPushes))
	}
	rep.Note("one shared incremental scan per batch regardless of K; %d-row appends into a %d-row relation; grouped cases stand one %d-group GROUP BY plan", 1000, rows, nGroups)
	return rep, nil
}

// groupedTable builds the benchmark relation: a shuffled numeric dimension,
// a categorical group column with nGroups values, and a measure.
func groupedTable(rows, nGroups int, seed int64) (*storage.Table, error) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "cat", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	rng := randx.New(seed + 73)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(rows, func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, i := range order {
		week := float64(i) / float64(rows) * 100
		if err := tb.AppendRow([]storage.Value{
			storage.Num(week),
			storage.Str(fmt.Sprintf("g%03d", rng.Intn(nGroups))),
			storage.Num(10 + week + rng.Normal(0, 2)),
		}); err != nil {
			return nil, err
		}
	}
	return tb, nil
}
