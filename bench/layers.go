package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Per-layer metrics come from three sources: spans of the traced run (S),
// counters and histograms the program already exports on the shared
// registry, read before and after the timed phase (C), and direct timed
// calls into each layer's public functions on the workload's own plans and
// end-state synopsis (D).

// ---- S: spans ----

// spanMetrics derives the span-sourced metrics. Stage attribution uses the
// workload's query endpoint — /query/stream for stream, /query otherwise
// (in live that is the concurrent reader; the appender's requests report no
// stages and are summarized by server.append_handler_p50_ms).
func spanMetrics(spans []span, w workloadSpec, m map[string]float64) {
	endpoint := "/query"
	if w.stream {
		endpoint = "/query/stream"
	}
	reqs := requests(spans, endpoint)
	var handler, self, transport, size, infer, parse, prune, scan, scanGrouped, step, steps []float64
	var handlerSum, selfSum, inferSum, scanSum float64
	for _, r := range reqs {
		h := r.handler.dur()
		handler = append(handler, h)
		self = append(self, r.self())
		transport = append(transport, r.client.dur()-h)
		size = append(size, float64(r.client.Bytes))
		inf := r.stageSum(obs.StageInfer)
		infer = append(infer, inf)
		handlerSum += h
		selfSum += r.self()
		inferSum += inf
		scanSum += r.stageSum(obs.StageScan)
		nSteps := 0
		for _, s := range r.stages {
			switch {
			case s.Name == spanStage+obs.StageParse:
				parse = append(parse, s.dur())
			case s.Name == spanStage+obs.StagePrune:
				prune = append(prune, s.dur())
			case s.Name == spanStage+obs.StageScan && s.Mode == obs.ModeProgressive:
				step = append(step, s.dur())
				nSteps++
			case s.Name == spanStage+obs.StageScan && s.Grouped:
				scanGrouped = append(scanGrouped, s.dur())
			case s.Name == spanStage+obs.StageScan:
				scan = append(scan, s.dur())
			}
		}
		if w.stream {
			steps = append(steps, float64(nSteps))
		}
	}
	share := func(part float64) float64 {
		if handlerSum == 0 {
			return 0
		}
		return part / handlerSum
	}
	m["server.handler_p50_ms"] = ms(median(handler))
	m["server.self_p50_ms"] = ms(median(self))
	m["server.self_share"] = share(selfSum)
	m["server.transport_p50_ms"] = ms(median(transport))
	m["server.resp_bytes_p50"] = median(size)
	m["core.parse_p50_us"] = median(parse) / 1e3
	m["core.plan_p50_us"] = median(prune) / 1e3
	m["core.infer_p50_ms"] = ms(median(infer))
	m["core.infer_share"] = share(inferSum)
	m["aqp.scan_p50_ms"] = ms(median(scan))
	m["aqp.scan_grouped_p50_ms"] = ms(median(scanGrouped))
	m["aqp.scan_share"] = share(scanSum)
	m["aqp.step_p50_ms"] = ms(median(step))
	m["aqp.increments_per_stream"] = mean(steps)

	var appends []float64
	for _, r := range requests(spans, "/append") {
		appends = append(appends, r.handler.dur())
	}
	m["server.append_handler_p50_ms"] = ms(median(appends))
	m["core.train_s"], m["aqp.rebuild_ms"] = 0, 0 // stay 0 where set-up does not train, nothing rebuilds
	for _, s := range spans {
		if s.Name != spanClient {
			continue
		}
		switch s.Endpoint {
		case "/train":
			m["core.train_s"] = s.dur() / 1e9
		case "/rebuild":
			m["aqp.rebuild_ms"] = ms(s.dur())
		}
	}
}

// checkSpans verifies the trace's shape: every stage span nests inside its
// handler span and that inside its client span, so no self time is
// negative.
func checkSpans(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == spanClient {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		case s.Name == spanHandler && p.Name != spanClient:
			return fmt.Errorf("handler span %d has a %s parent", s.ID, p.Name)
		case s.Name != spanHandler && p.Name != spanHandler:
			return fmt.Errorf("stage span %d has a %s parent", s.ID, p.Name)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// ---- C: the program's own counters ----

// scrape reads GET /metrics into a flat "name{labels}" → value map.
func scrape(c *client) (map[string]float64, error) {
	r, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	values, _, err := obs.ParseText(bytes.NewReader(r.body))
	return values, err
}

func counterMetrics(before, after map[string]float64, sb, sa core.SystemStats, m map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	perCount := func(name string) float64 {
		if n := delta(name + "_count"); n > 0 {
			return delta(name+"_sum") / n
		}
		return 0
	}
	m["server.shed_total"] = delta("verdict_http_shed_total")
	m["server.chunk_gap_mean_ms"] = perCount("verdict_stream_increment_lag_seconds") * 1e3
	m["core.notify_mean_ms"] = perCount("verdict_notify_fanout_seconds") * 1e3
	if n := delta("verdict_notify_fanout_seconds_count"); n > 0 {
		m["core.notify_scans_per_batch"] = delta("verdict_notify_scans_total") / n
	} else {
		m["core.notify_scans_per_batch"] = 0
	}
	m["notify.coalesced_total"] = delta("verdict_notify_coalesced_total")
	m["core.synopsis_snippets"] = after["verdict_synopsis_snippets"]
	if q := sa.Total - sb.Total; q > 0 {
		m["core.snippets_per_query"] = float64(sa.Snippets-sb.Snippets) / float64(q)
	} else {
		m["core.snippets_per_query"] = 0
	}
}

// ---- D: direct calls ----

// minCalls is the fewest calls a direct timing takes its median over.
const minCalls = 200

// timeCalls times n calls of f one by one and returns their median
// duration in nanoseconds.
func timeCalls(n int, f func(i int)) float64 {
	if n < minCalls {
		n = minCalls
	}
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		f(i)
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// timeBatches is timeCalls for functions too short for one clock read:
// each sample times batch calls and reports nanoseconds per call.
func timeBatches(batch int, f func(i int)) float64 {
	return timeCalls(minCalls, func(s int) {
		for i := 0; i < batch; i++ {
			f(s*batch + i)
		}
	}) / float64(batch)
}

// plan is one statement bound the way core.System.plan binds it.
type plan struct {
	snips []*query.Snippet   // ungrouped: the statement's snippets
	spec  *query.GroupedSpec // grouped: the one-pass discovery spec
}

func bind(sql string, table *storage.Table) (plan, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return plan{}, err
	}
	if sup := query.Check(stmt); !sup.OK {
		return plan{}, fmt.Errorf("unsupported: %q", sql)
	}
	if len(stmt.GroupBy) > 0 {
		cols := make([]int, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			col, ok := table.Schema().Lookup(g.Name)
			if !ok {
				return plan{}, fmt.Errorf("unknown group column %s", g.Name)
			}
			cols[i] = col
		}
		spec := query.GroupedSpecOf(stmt, table, cols)
		if spec == nil {
			return plan{}, fmt.Errorf("not a one-pass grouped statement: %q", sql)
		}
		return plan{spec: spec}, nil
	}
	if _, err := query.BindRegion(stmt.Where, table); err != nil {
		return plan{}, err
	}
	decs, err := query.Decompose(stmt, table, nil, 0)
	if err != nil {
		return plan{}, err
	}
	return plan{snips: decs[0].Snippets}, nil
}

// distinct returns the distinct statements of the lists, first-seen order,
// at most limit of them.
func distinct(limit int, lists ...[]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range lists {
		for _, s := range l {
			if !seen[s] && len(out) < limit {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// directCalls times each layer's public functions on the workload's own
// statements and end state. It runs after the audits, on a server nothing
// else will use: the last step appends to the run's engine directly.
func directCalls(s *system, w workloadSpec, in *inputs, m map[string]float64) error {
	eng := s.sys.Engine()
	cur := eng.Acquire()
	// A replay view carries no stage timer, so these scans leave the
	// program's histograms alone.
	view := eng.ViewAtGen(cur.SampleGen, cur.BaseRows, cur.SampleRows)
	table := view.Base
	sqls := distinct(256, in.subs, in.ops, in.warm)

	m["sqlparse.parse_call_us"] = timeCalls(len(sqls), func(i int) {
		_, _ = sqlparse.Parse(sqls[i%len(sqls)])
	}) / 1e3
	var bindErr error
	m["query.plan_call_us"] = timeCalls(len(sqls), func(i int) {
		if _, err := bind(sqls[i%len(sqls)], table); err != nil {
			bindErr = err
		}
	}) / 1e3
	if bindErr != nil {
		return bindErr
	}

	var flat, grouped []plan
	for _, sql := range sqls {
		p, err := bind(sql, table)
		if err != nil {
			return err
		}
		if p.spec != nil {
			grouped = append(grouped, p)
		} else {
			flat = append(flat, p)
		}
	}

	// aqp: the one-shot scans behind /query.
	m["aqp.scan_call_mrows_per_s"], m["aqp.grouped_call_ms"] = 0, 0
	var snips []*query.Snippet
	var raws []query.ScalarEstimate
	if len(flat) > 0 {
		for _, p := range flat {
			upd := view.RunToCompletion(p.snips)
			for i, sn := range p.snips {
				snips = append(snips, sn)
				raws = append(raws, aqp.Sanitize(upd.Estimates[i]))
			}
		}
		ns := timeCalls(len(flat), func(i int) { view.RunToCompletion(flat[i%len(flat)].snips) })
		m["aqp.scan_call_mrows_per_s"] = float64(view.SampleRows) / 1e6 / (ns / 1e9)
	}
	if len(grouped) > 0 {
		m["aqp.grouped_call_ms"] = ms(timeCalls(len(grouped), func(i int) {
			view.GroupedRunToCompletion(grouped[i%len(grouped)].spec, core.DefaultNmax)
		}))
	}

	// core: read-only inference on the live synopsis, then Record of a
	// fresh snippet plus the Infer that republishes the model, on a
	// throwaway copy loaded from the saved end state.
	verdict := s.sys.Verdict()
	m["core.infer_call_us"], m["core.record_call_ms"] = 0, 0
	if len(snips) > 0 {
		m["core.infer_call_us"] = timeCalls(len(snips), func(i int) {
			verdict.Infer(snips[i%len(snips)], raws[i%len(snips)])
		}) / 1e3
	}
	var saved bytes.Buffer
	if err := s.sys.SaveSynopsis(&saved); err != nil {
		return err
	}
	scratch, err := core.Load(&saved, eng.Base(), core.Config{SynopsisCap: w.synopsisCap})
	if err != nil {
		return err
	}
	var freshSnips []*query.Snippet
	var freshRaws []query.ScalarEstimate
	for _, sql := range in.fresh {
		p, err := bind(sql, table)
		if err != nil {
			return err
		}
		if p.spec != nil || len(freshSnips) >= minCalls {
			continue
		}
		upd := view.RunToCompletion(p.snips)
		freshSnips = append(freshSnips, p.snips[0])
		freshRaws = append(freshRaws, aqp.Sanitize(upd.Estimates[0]))
	}
	if len(freshSnips) < minCalls {
		return fmt.Errorf("only %d fresh snippets for the Record timing", len(freshSnips))
	}
	m["core.record_call_ms"] = ms(timeCalls(len(freshSnips), func(i int) {
		scratch.Record(freshSnips[i], freshRaws[i])
		scratch.Infer(freshSnips[i], freshRaws[i])
	}))

	// kernel: covariance over pairs of the workload's snippets that share a
	// model, under that model's parameters.
	m["kernel.covariance_call_ns"] = 0
	if len(snips) > 1 {
		type pair struct {
			a, b *query.Snippet
			p    kernel.Params
		}
		var pairs []pair
		for i := 0; i < len(snips) && len(pairs) < 1024; i++ {
			for j := i + 1; j < len(snips) && len(pairs) < 1024; j++ {
				if snips[i].Func() != snips[j].Func() {
					continue
				}
				if p, ok := verdict.Params(snips[i].Func()); ok {
					pairs = append(pairs, pair{snips[i], snips[j], p})
				}
			}
		}
		if len(pairs) > 0 {
			m["kernel.covariance_call_ns"] = timeBatches(256, func(i int) {
				pr := pairs[i%len(pairs)]
				kernel.Covariance(pr.a, pr.b, pr.p)
			})
		}
	}

	// linalg at n = the largest per-model synopsis at the end of the run,
	// on an exponential-kernel matrix (positive definite by construction).
	n := 1
	for _, id := range verdict.FuncIDs() {
		if k := len(verdict.SynopsisKeys(id)); k > n {
			n = k
		}
	}
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, math.Exp(-math.Abs(float64(i-j))/8))
		}
		a.Add(i, i, 0.1)
	}
	chol, err := linalg.NewCholesky(a)
	if err != nil {
		return err
	}
	rhs, col := make([]float64, n), make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
		col[i] = math.Exp(-float64(n-i) / 8)
	}
	m["linalg.cholesky_call_ms"] = ms(timeCalls(0, func(int) { _, _ = linalg.NewCholesky(a) }))
	m["linalg.solve_call_us"] = timeCalls(0, func(int) { _, _ = chol.Solve(rhs) }) / 1e3
	m["linalg.extend_call_us"] = timeCalls(0, func(int) { _, _ = chol.Extend(col, 1.1) }) / 1e3

	// notify: one broadcast to 4 subscribers that keep up.
	hub := notify.NewHub[int]()
	var subs []*notify.Sub[int]
	for i := 0; i < 4; i++ {
		subs = append(subs, hub.Subscribe(0))
	}
	bcast := make([]float64, minCalls)
	for i := range bcast {
		t0 := time.Now()
		hub.Broadcast(i)
		bcast[i] = float64(time.Since(t0))
		for _, sub := range subs {
			sub.TryNext()
		}
	}
	hub.CloseAll("done")
	m["notify.broadcast_call_us"] = median(bcast) / 1e3

	// obs: one histogram observation — instrumentation must stay free.
	hist := obs.NewRegistry().Histogram("bench_probe_seconds", "direct-call probe", nil)
	m["obs.observe_call_ns"] = timeBatches(1024, func(i int) { hist.Observe(float64(i%100) * 1e-4) })

	// storage and aqp write path, last: these append for real.
	base := eng.Base()
	idx := make([]int, batchRows)
	for i := range idx {
		idx[i] = i
	}
	batch := base.SelectRows("batch", idx)
	m["storage.snapshot_call_us"] = timeCalls(0, func(int) { base.Snapshot() }) / 1e3
	sink := storage.NewTable("sink", base.Schema())
	var appendErr error
	ns := timeCalls(0, func(int) {
		if err := sink.AppendTable(batch); err != nil {
			appendErr = err
		}
	})
	m["storage.append_call_mrows_per_s"] = batchRows / 1e6 / (ns / 1e9)
	m["aqp.append_call_ms"] = ms(timeCalls(0, func(i int) {
		if _, err := eng.Append(batch, int64(i)+1); err != nil {
			appendErr = err
		}
	}))
	return appendErr
}
