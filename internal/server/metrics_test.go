package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
)

// metricsFixture is fixture plus the full observability wiring: one shared
// registry carries both the core stage timer and the serving-layer metrics,
// and the structured logger runs (into io.Discard) so the log path is
// exercised under every test including the -race storm.
func metricsFixture(t *testing.T, rows int, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	return metricsFixtureCore(t, rows, cfg, core.Config{})
}

// metricsFixtureCore is metricsFixture with a core configuration; its Stages
// is set to the shared registry's.
func metricsFixtureCore(t *testing.T, rows int, cfg Config, ccfg core.Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	tb := salesTable(t, rows, 42)
	sample, err := aqp.BuildSample(tb, 0.2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ccfg.Stages = obs.NewQueryStages(reg)
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), ccfg)
	logger, err := obs.NewLogger(io.Discard, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = reg
	cfg.Logger = logger
	if cfg.Generate == nil {
		cfg.Generate = func(n int, seed int64) (*storage.Table, error) {
			return salesTable(t, n, seed), nil
		}
	}
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

// scrape GETs /metrics and parses the exposition through the independent
// text-format parser, so the writer is validated against the format, not
// against its own structures.
func scrape(t *testing.T, base string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("/metrics content-type %q, want %q", ct, obs.TextContentType)
	}
	values, types, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return values, types
}

// sumMatching sums every sample whose key contains all the given
// substrings — label order inside the braces stays an exposition detail.
func sumMatching(values map[string]float64, substrs ...string) float64 {
	total := 0.0
	for k, v := range values {
		ok := true
		for _, s := range substrs {
			if !strings.Contains(k, s) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// countKey rewrites a +Inf bucket sample key into its series' _count key.
func countKey(bucketKey string) string {
	k := strings.Replace(bucketKey, "_bucket", "_count", 1)
	k = strings.Replace(k, `,le="+Inf"`, "", 1)
	k = strings.Replace(k, `{le="+Inf"}`, "", 1)
	return k
}

// checkHistogramsConsistent asserts, for a quiesced registry, that every
// histogram series' _count equals its +Inf bucket — both are built from one
// snapshot, so any drift means the writer mixed snapshots.
func checkHistogramsConsistent(t *testing.T, values map[string]float64) {
	t.Helper()
	checked := 0
	for k, v := range values {
		if !strings.Contains(k, `le="+Inf"`) {
			continue
		}
		ck := countKey(k)
		cv, ok := values[ck]
		if !ok {
			t.Fatalf("bucket %q has no matching count %q", k, ck)
		}
		if cv != v {
			t.Fatalf("%s = %g but +Inf bucket %s = %g", ck, cv, k, v)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no +Inf buckets found: exposition carries no histograms")
	}
}

// TestMetricsExposition drives every instrumented path — one-shot queries
// (grouped and ungrouped), a progressive stream, appends, a rebuild — and
// asserts the scrape carries each promised family with sane values.
func TestMetricsExposition(t *testing.T) {
	srv, ts, _ := metricsFixture(t, 6000, Config{})

	var qr QueryResponse
	if code := post(t, ts.URL+"/query", QueryRequest{
		SQL: "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20",
	}, &qr); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if code := post(t, ts.URL+"/query", QueryRequest{
		SQL: "SELECT region, AVG(revenue) FROM sales GROUP BY region",
	}, &qr); code != 200 {
		t.Fatalf("grouped query status %d", code)
	}
	chunks := postStream(t, ts.URL, StreamRequest{
		SQL: "SELECT AVG(revenue) FROM sales WHERE week >= 5", MinRows: 64,
	})
	if len(chunks) < 2 {
		t.Fatalf("stream produced %d chunks, need ≥2 for a lag sample", len(chunks))
	}
	if code := post(t, ts.URL+"/append", AppendRequest{Rows: [][]any{
		{25.0, "east", 100.0},
	}}, nil); code != 200 {
		t.Fatalf("append status %d", code)
	}
	if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
		t.Fatalf("rebuild status %d", code)
	}

	values, types := scrape(t, ts.URL)

	wantTypes := map[string]string{
		"verdict_query_stage_duration_seconds":    "histogram",
		"verdict_http_request_duration_seconds":   "histogram",
		"verdict_stream_increment_lag_seconds":    "histogram",
		"verdict_rebuild_duration_seconds":        "histogram",
		"verdict_http_requests_total":             "counter",
		"verdict_http_shed_total":                 "counter",
		"verdict_stream_resumes_total":            "counter",
		"verdict_stream_behind_horizon_total":     "counter",
		"verdict_synopsis_records_total":          "counter",
		"verdict_synopsis_trains_total":           "counter",
		"verdict_synopsis_refactorizations_total": "counter",
		"verdict_synopsis_factor_edits_total":     "counter",
		"verdict_synopsis_gram_rebuilds_total":    "counter",
		"verdict_synopsis_noop_repeats_total":     "counter",
		"verdict_scan_memo_total":                 "counter",
		"verdict_append_drift_rows_total":         "counter",
		"verdict_scan_memo_entries":               "gauge",
		"verdict_http_in_flight":                  "gauge",
		"verdict_streams_active":                  "gauge",
		"verdict_replay_horizon_age_generations":  "gauge",
		"verdict_pending_rows":                    "gauge",
		"verdict_retained_generations":            "gauge",
		"verdict_uptime_seconds":                  "gauge",
	}
	for name, want := range wantTypes {
		if got := types[name]; got != want {
			t.Errorf("type of %s = %q, want %q", name, got, want)
		}
	}

	// Every pipeline stage fired, in both modes where the traffic implies it.
	stageCount := "verdict_query_stage_duration_seconds_count"
	for _, stage := range []string{obs.StageParse, obs.StagePrune, obs.StageScan, obs.StageInfer} {
		if n := sumMatching(values, stageCount, fmt.Sprintf("stage=%q", stage)); n == 0 {
			t.Errorf("no observations for stage %q", stage)
		}
	}
	if n := sumMatching(values, stageCount, `mode="progressive"`, `stage="scan"`); n == 0 {
		t.Error("stream left no progressive scan observations")
	}
	if n := sumMatching(values, stageCount, `mode="oneshot"`, `grouped="true"`); n == 0 {
		t.Error("grouped query left no grouped one-shot observations")
	}

	if n := sumMatching(values, "verdict_stream_increment_lag_seconds_count"); n < 1 {
		t.Errorf("stream increment lag count = %g, want ≥1", n)
	}
	if n := sumMatching(values, "verdict_rebuild_duration_seconds_count"); n < 1 {
		t.Errorf("rebuild duration count = %g, want ≥1", n)
	}
	if n := sumMatching(values, "verdict_http_requests_total", `endpoint="/query"`, `status="200"`); n < 2 {
		t.Errorf("/query 200 counter = %g, want ≥2", n)
	}
	if v, ok := values["verdict_http_shed_total"]; !ok || v != 0 {
		t.Errorf("shed counter = %v (present %v), want 0", v, ok)
	}
	if n := sumMatching(values, "verdict_synopsis_records_total"); n == 0 {
		t.Error("synopsis record counter zero after queries")
	}
	if _, ok := values["verdict_replay_horizon_age_generations"]; !ok {
		t.Error("replay horizon age gauge missing")
	}
	checkHistogramsConsistent(t, values)

	// A second quiet scrape must stay monotone (and gauges aside, equal).
	values2, _ := scrape(t, ts.URL)
	for k, v := range values {
		if strings.Contains(k, "_bucket") || strings.Contains(k, "_count") {
			if values2[k] < v {
				t.Errorf("%s went backwards: %g -> %g", k, v, values2[k])
			}
		}
	}

	// The synopsis maintenance counters tell the three kinds of Record
	// apart. The traffic so far recorded new snippets, then an append moved
	// every β (a refactorization each). One more pass of the first query
	// settles its entry on the post-append sample's error; from then on
	// repeating it is a recency bump: no factorization, no Gram rebuild.
	if n := sumMatching(values, "verdict_synopsis_refactorizations_total"); n == 0 {
		t.Error("no refactorizations counted after new snippets and an append")
	}
	repeat := QueryRequest{SQL: "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20"}
	if code := post(t, ts.URL+"/query", repeat, &qr); code != 200 {
		t.Fatalf("repeat query status %d", code)
	}
	settled, _ := scrape(t, ts.URL)
	for i := 0; i < 3; i++ {
		if code := post(t, ts.URL+"/query", repeat, &qr); code != 200 {
			t.Fatalf("repeat query status %d", code)
		}
	}
	repeated, _ := scrape(t, ts.URL)
	for _, flat := range []string{"verdict_synopsis_refactorizations_total", "verdict_synopsis_gram_rebuilds_total"} {
		if a, b := sumMatching(settled, flat), sumMatching(repeated, flat); a != b {
			t.Errorf("%s moved %g -> %g under repeats that teach nothing", flat, a, b)
		}
	}
	if a, b := sumMatching(settled, "verdict_synopsis_noop_repeats_total"), sumMatching(repeated, "verdict_synopsis_noop_repeats_total"); b < a+3 {
		t.Errorf("noop repeats %g -> %g after 3 repeated queries", a, b)
	}
	// The scan memo saw the same repeats: each reused the fold the settling
	// pass left behind, none folded the sample again, and the entry count
	// did not move.
	memo := func(v map[string]float64, outcome string) float64 {
		return sumMatching(v, "verdict_scan_memo_total", fmt.Sprintf("outcome=%q", outcome))
	}
	if a, b := memo(settled, "reused"), memo(repeated, "reused"); b != a+3 {
		t.Errorf("scan memo reused %g -> %g after 3 repeated queries", a, b)
	}
	for _, outcome := range []string{"folded", "extended"} {
		if a, b := memo(settled, outcome), memo(repeated, outcome); a != b {
			t.Errorf("scan memo %s moved %g -> %g under repeats on an unchanged sample", outcome, a, b)
		}
	}
	if memo(repeated, "folded") == 0 {
		t.Error("scan memo counted no full fold for the first sight of each statement")
	}
	if a, b := settled["verdict_scan_memo_entries"], repeated["verdict_scan_memo_entries"]; a != 3 || b != 3 {
		t.Errorf("scan memo entries %g -> %g, want the 2 /query statements and the streamed one", a, b)
	}
	// A stream on the default schedule is one memo outcome too: its first
	// run on this snapshot scans and stores every increment, and the same
	// stream again re-emits them all — reused, nothing folded, no new entry.
	stream := StreamRequest{SQL: "SELECT AVG(revenue) FROM sales WHERE week >= 5"}
	postStream(t, ts.URL, stream)
	streamed, _ := scrape(t, ts.URL)
	again := postStream(t, ts.URL, stream)
	checkStream(t, "repeated stream", again)
	repeated, _ = scrape(t, ts.URL)
	if a, b := memo(streamed, "reused"), memo(repeated, "reused"); b != a+1 {
		t.Errorf("scan memo reused %g -> %g after a repeated stream", a, b)
	}
	for _, outcome := range []string{"folded", "extended"} {
		if a, b := memo(streamed, outcome), memo(repeated, outcome); a != b {
			t.Errorf("scan memo %s moved %g -> %g under a repeated stream", outcome, a, b)
		}
	}
	if n := repeated["verdict_scan_memo_entries"]; n != 3 {
		t.Errorf("scan memo entries %g after a repeated stream, want 3", n)
	}
	// Two more appends: the second buckets only the rows the first sampled,
	// once per AVG model, since each model carries its old-sample drift
	// moments. Neither runs a query, so no other counter below moves.
	var ar AppendResponse
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 500, Seed: 3}, &ar); code != 200 {
		t.Fatalf("append status %d", code)
	}
	afterFirst, _ := scrape(t, ts.URL)
	if code := post(t, ts.URL+"/append", AppendRequest{Rows: [][]any{
		{25.0, "east", 100.0},
	}}, nil); code != 200 {
		t.Fatalf("append status %d", code)
	}
	afterSecond, _ := scrape(t, ts.URL)
	avgModels := 0
	for _, id := range srv.sys.Verdict().FuncIDs() {
		if id.Kind == query.AvgAgg {
			avgModels++
		}
	}
	const driftRows = "verdict_append_drift_rows_total"
	if avgModels == 0 || ar.Sampled == 0 {
		t.Fatalf("%d AVG models, first append sampled %d rows: nothing for the drift carry to show", avgModels, ar.Sampled)
	}
	if d := afterSecond[driftRows] - afterFirst[driftRows]; d != float64(ar.Sampled*avgModels) {
		t.Errorf("second append bucketed %g sample rows for drift, want the first append's %d sampled × %d AVG models",
			d, ar.Sampled, avgModels)
	}
	// /stats carries the same counters: the memo's and the drift rows in
	// the system block, the synopsis ones in the synopsis block.
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	syn := st.Synopsis
	if float64(syn.Records) != sumMatching(repeated, "verdict_synopsis_records_total") ||
		float64(syn.Trains) != sumMatching(repeated, "verdict_synopsis_trains_total") ||
		float64(syn.NoopRepeats) != sumMatching(repeated, "verdict_synopsis_noop_repeats_total") ||
		float64(syn.Refactorizations) != sumMatching(repeated, "verdict_synopsis_refactorizations_total") ||
		float64(syn.FactorEdits) != sumMatching(repeated, "verdict_synopsis_factor_edits_total") ||
		float64(syn.GramRebuilds) != sumMatching(repeated, "verdict_synopsis_gram_rebuilds_total") {
		t.Errorf("/stats synopsis counters %+v disagree with /metrics", syn.Counters)
	}
	if float64(st.System.DriftRows) != afterSecond[driftRows] {
		t.Errorf("/stats drift rows %d disagree with /metrics %g", st.System.DriftRows, afterSecond[driftRows])
	}
	if float64(st.System.ScanMemoReused) != memo(repeated, "reused") ||
		float64(st.System.ScanMemoFolded) != memo(repeated, "folded") || st.System.ScanMemoEntries != 3 {
		t.Errorf("/stats scan memo (reused %d, folded %d, entries %d) disagrees with /metrics",
			st.System.ScanMemoReused, st.System.ScanMemoFolded, st.System.ScanMemoEntries)
	}

	// Under evictions — a synopsis capped at 16, asked only statements it
	// has never seen — every record at the cap edits the factor in O(n²),
	// and a from-scratch refactorization (the σ² refresh) comes at most once
	// per builtAt = 16 edits instead of once per record.
	const synopsisCap = 16
	_, evTS, _ := metricsFixtureCore(t, 6000, Config{}, core.Config{SynopsisCap: synopsisCap})
	ask := func(i int) {
		sql := fmt.Sprintf("SELECT AVG(revenue) FROM sales WHERE week BETWEEN %d AND %d", i%30, i%30+3+i/30)
		if code := post(t, evTS.URL+"/query", QueryRequest{SQL: sql}, nil); code != 200 {
			t.Fatalf("unique query %d status %d", i, code)
		}
	}
	for i := 0; i < 2*synopsisCap; i++ {
		ask(i)
	}
	full, _ := scrape(t, evTS.URL)
	for i := 2 * synopsisCap; i < 6*synopsisCap; i++ {
		ask(i)
	}
	evicted, _ := scrape(t, evTS.URL)
	dEdits := sumMatching(evicted, "verdict_synopsis_factor_edits_total") - sumMatching(full, "verdict_synopsis_factor_edits_total")
	dRefacts := sumMatching(evicted, "verdict_synopsis_refactorizations_total") - sumMatching(full, "verdict_synopsis_refactorizations_total")
	if dEdits < 3*synopsisCap || dRefacts > 1+dEdits/(synopsisCap-1) {
		t.Errorf("%d unique queries at the cap: %g factor edits, %g refactorizations; want ≥ %d edits and ≤ 1 refactorization per %d edits",
			4*synopsisCap, dEdits, dRefacts, 3*synopsisCap, synopsisCap)
	}
}

// TestMetricsStatsSummary checks the /stats digest: totals, ordered
// quantiles, uptime. verdict-cli renders exactly this block.
func TestMetricsStatsSummary(t *testing.T) {
	_, ts, _ := metricsFixture(t, 4000, Config{})
	for i := 0; i < 5; i++ {
		if code := post(t, ts.URL+"/query", QueryRequest{
			SQL: "SELECT COUNT(*) FROM sales WHERE week <= 30",
		}, nil); code != 200 {
			t.Fatalf("query status %d", code)
		}
	}
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics
	if m == nil {
		t.Fatal("stats carries no metrics_summary despite a wired registry")
	}
	if m.TotalRequests < 5 {
		t.Errorf("total_requests = %d, want ≥5", m.TotalRequests)
	}
	if m.RequestP50MS <= 0 || m.RequestP50MS > m.RequestP95MS || m.RequestP95MS > m.RequestP99MS {
		t.Errorf("quantiles out of order: p50=%g p95=%g p99=%g", m.RequestP50MS, m.RequestP95MS, m.RequestP99MS)
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g", m.UptimeSeconds)
	}
	if m.Shed != 0 {
		t.Errorf("shed = %d, want 0", m.Shed)
	}

	// Without a registry the block is absent, not zeroed.
	_, _, ts2 := fixture(t, 2000, Config{})
	r2, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["metrics_summary"]; ok {
		t.Error("metrics_summary present without a registry")
	}
}

// TestRequestIDPropagation: the middleware mints an ID, echoes client ones
// within bounds, and stamps the error envelope with the same ID as the
// response header.
func TestRequestIDPropagation(t *testing.T) {
	_, ts, _ := metricsFixture(t, 2000, Config{})

	// Minted when absent.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(id, "r-") {
		t.Fatalf("minted request ID %q lacks r- prefix", id)
	}

	// Client-supplied IDs are honored...
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	req.Header.Set("X-Request-ID", "trace-abc-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-abc-123" {
		t.Fatalf("client request ID not echoed: %q", got)
	}

	// ...unless oversized, in which case the server mints its own.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", maxClientRequestID+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "r-") {
		t.Fatalf("oversized client ID not replaced: %q", got)
	}

	// Error envelopes carry the header's ID.
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}
	var env struct {
		Code      string `json:"code"`
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("envelope request_id %q != header %q", env.RequestID, resp.Header.Get("X-Request-ID"))
	}

	// Two minted IDs never collide.
	r2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if id2 := r2.Header.Get("X-Request-ID"); id2 == id {
		t.Fatalf("request ID %q repeated", id)
	}
}

// TestErrorEnvelope table-tests the 4xx/5xx contract: every error path
// answers {code, error, request_id} with the right code.
func TestErrorEnvelope(t *testing.T) {
	_, ts, _ := metricsFixture(t, 2000, Config{})

	do := func(t *testing.T, method, path, body string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: non-JSON error body: %v", method, path, err)
		}
		return resp.StatusCode, env
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"query wrong method", http.MethodGet, "/query", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"stream wrong method", http.MethodGet, "/query/stream", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"rebuild wrong method", http.MethodGet, "/rebuild", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"metrics wrong method", http.MethodPost, "/metrics", "{}", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"query bad json", http.MethodPost, "/query", "{", http.StatusBadRequest, "bad_request"},
		{"query missing sql", http.MethodPost, "/query", "{}", http.StatusBadRequest, "bad_request"},
		{"query bad sql", http.MethodPost, "/query", `{"sql":"SELECT"}`, http.StatusBadRequest, "bad_request"},
		{"stream negative min_rows", http.MethodPost, "/query/stream", `{"sql":"SELECT COUNT(*) FROM sales","min_rows":-1}`, http.StatusBadRequest, "bad_request"},
		{"append empty", http.MethodPost, "/append", "{}", http.StatusBadRequest, "bad_request"},
		{"save unconfigured", http.MethodPost, "/save", "{}", http.StatusBadRequest, "bad_request"},
		{"unknown path", http.MethodGet, "/nope", "", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, env := do(t, tc.method, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%v)", status, tc.wantStatus, env)
			}
			if env["code"] != tc.wantCode {
				t.Fatalf("code %v, want %q", env["code"], tc.wantCode)
			}
			if msg, _ := env["error"].(string); msg == "" {
				t.Fatal("empty error message")
			}
			if rid, _ := env["request_id"].(string); rid == "" {
				t.Fatal("missing request_id")
			}
		})
	}

	t.Run("draining", func(t *testing.T) {
		srv, ts2, reg := metricsFixture(t, 2000, Config{})
		srv.BeginDrain()
		req, _ := http.NewRequest(http.MethodPost, ts2.URL+"/query",
			strings.NewReader(`{"sql":"SELECT COUNT(*) FROM sales"}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env["code"] != "draining" {
			t.Fatalf("drain response %d %v", resp.StatusCode, env)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		values, _, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if values["verdict_http_shed_total"] != 1 {
			t.Fatalf("shed counter = %g after one drain rejection", values["verdict_http_shed_total"])
		}
	})

	t.Run("saturated", func(t *testing.T) {
		_, ts3, _ := metricsFixture(t, 4000, Config{MaxInFlight: 1, QueueWait: 20 * time.Millisecond})
		// Park the only worker slot on a paced stream, then watch a query
		// time out of the admission queue.
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunks := postStream(t, ts3.URL, StreamRequest{
				SQL: "SELECT AVG(revenue) FROM sales", MinRows: 16, PaceMS: 50,
			})
			if len(chunks) == 0 {
				t.Error("paced stream returned no chunks")
			}
		}()
		go func() { wg.Wait(); close(release) }()

		deadline := time.Now().Add(5 * time.Second)
		for {
			req, _ := http.NewRequest(http.MethodPost, ts3.URL+"/query",
				strings.NewReader(`{"sql":"SELECT COUNT(*) FROM sales"}`))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env map[string]any
			dec := json.NewDecoder(resp.Body)
			if err := dec.Decode(&env); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				if env["code"] != "saturated" {
					t.Fatalf("503 code %v, want saturated", env["code"])
				}
				break
			}
			// The stream may not have grabbed its slot yet; retry briefly.
			if time.Now().After(deadline) {
				t.Fatal("never saw a saturated 503 while the stream held the slot")
			}
			select {
			case <-release:
				t.Skip("stream finished before saturation could be observed")
			case <-time.After(5 * time.Millisecond):
			}
		}
		<-release
	})
}

// TestMetricsStorm is the -race consistency check: 8 concurrent sessions
// mixing one-shot queries, progressive streams, and appends, with a rebuild
// landing mid-storm and /metrics scraped throughout. Counters and histogram
// buckets must be monotone across live scrapes, and after quiescing every
// histogram's _count must equal its +Inf bucket.
func TestMetricsStorm(t *testing.T) {
	_, ts, _ := metricsFixture(t, 4000, Config{})

	const workers = 8
	const iters = 3
	var work sync.WaitGroup
	stop := make(chan struct{})
	// Every completed worker append paces one scrape; the first also fires
	// the mid-storm rebuild. A worker that gives up early still fires it,
	// so the rebuild never waits forever.
	appended := make(chan struct{}, workers*iters)
	first := make(chan struct{})
	signal := sync.OnceFunc(func() { close(first) })

	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			defer signal()
			session := fmt.Sprintf("storm-%d", w)
			for i := 0; i < iters; i++ {
				sql := "SELECT AVG(revenue) FROM sales WHERE week <= 40"
				if w%2 == 0 {
					sql = "SELECT region, SUM(revenue) FROM sales GROUP BY region"
				}
				if code := post(t, ts.URL+"/query", QueryRequest{SQL: sql, Session: session}, nil); code != 200 {
					t.Errorf("worker %d query status %d", w, code)
					return
				}
				chunks := postStream(t, ts.URL, StreamRequest{
					SQL: "SELECT COUNT(*) FROM sales WHERE week >= 10", Session: session, MinRows: 64,
				})
				if len(chunks) == 0 {
					t.Errorf("worker %d empty stream", w)
					return
				}
				if code := post(t, ts.URL+"/append", AppendRequest{Session: session, Rows: [][]any{
					{float64(w), "east", 99.0},
				}}, nil); code != 200 {
					t.Errorf("worker %d append status %d", w, code)
					return
				}
				signal()
				appended <- struct{}{}
			}
		}(w)
	}

	// One rebuild mid-storm, on the storm's first append: pinned
	// generations keep in-flight streams coherent; here we only care that
	// its duration lands in the histogram without tripping the race
	// detector.
	work.Add(1)
	go func() {
		defer work.Done()
		<-first
		if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
			t.Errorf("mid-storm rebuild status %d", code)
		}
	}()

	// Scraper: every counter and histogram bucket/count/sum is monotone
	// from one live scrape to the next.
	scrapeErr := make(chan error, 1)
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		prev := map[string]float64{}
		for {
			select {
			case <-stop:
				return
			case <-appended:
			}
			values, types := scrape(t, ts.URL)
			for k, v := range values {
				name := k
				if i := strings.IndexByte(name, '{'); i >= 0 {
					name = name[:i]
				}
				monotone := types[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")] == "histogram" ||
					types[name] == "counter"
				if monotone && v < prev[k] {
					select {
					case scrapeErr <- fmt.Errorf("%s went backwards: %g -> %g", k, prev[k], v):
					default:
					}
					return
				}
				if monotone {
					prev[k] = v
				}
			}
		}
	}()

	// Wait for the workers, then stop the scraper and surface any
	// monotonicity violation it recorded.
	work.Wait()
	close(stop)
	scraper.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// Quiesced: full exposition is internally consistent and the storm's
	// traffic is all accounted for.
	values, _ := scrape(t, ts.URL)
	checkHistogramsConsistent(t, values)
	if n := sumMatching(values, "verdict_http_requests_total", `endpoint="/query"`, `status="200"`); n < workers*iters {
		t.Errorf("/query 200 counter = %g, want ≥%d", n, workers*iters)
	}
	if n := sumMatching(values, "verdict_query_stage_duration_seconds_count", `stage="infer"`, `mode="progressive"`); n == 0 {
		t.Error("storm streams left no progressive infer observations")
	}
	if v := values["verdict_streams_active"]; v != 0 {
		t.Errorf("streams_active = %g after quiesce", v)
	}
	if v := values["verdict_http_in_flight"]; v < 0 || v > 1 {
		// Our own scrape may still be counted; anything else leaked.
		t.Errorf("in_flight = %g after quiesce", v)
	}
}
