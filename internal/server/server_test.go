package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/storage"
)

// fixture builds a server over a sales-like relation (revenue ≈ 50 + 2·week
// + region offset) plus a generator for streaming batches.
func fixture(t *testing.T, rows int, cfg Config) (*Server, *core.System, *httptest.Server) {
	t.Helper()
	tb := salesTable(t, rows, 42)
	sample, err := aqp.BuildSample(tb, 0.2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{})
	if cfg.Generate == nil {
		cfg.Generate = func(n int, seed int64) (*storage.Table, error) {
			return salesTable(t, n, seed), nil
		}
	}
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, sys, ts
}

func salesTable(t *testing.T, rows int, seed int64) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("sales", schema)
	rng := randx.New(seed)
	regions := []string{"east", "west"}
	offsets := map[string]float64{"east": 0, "west": 10}
	for i := 0; i < rows; i++ {
		w := rng.Uniform(0, 52)
		rg := regions[rng.Intn(2)]
		rev := 50 + 2*w + offsets[rg] + rng.Normal(0, 3)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(w), storage.Str(rg), storage.Num(rev),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func post(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, data)
		}
	}
	return r.StatusCode
}

func TestServerQueryAppendStats(t *testing.T) {
	_, _, ts := fixture(t, 20000, Config{})

	// Query through the pipeline.
	var qr QueryResponse
	req := QueryRequest{SQL: "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20", Session: "alice"}
	if code := post(t, ts.URL+"/query", req, &qr); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if !qr.Supported || len(qr.Rows) != 1 || len(qr.Rows[0].Cells) != 1 {
		t.Fatalf("query response %+v", qr)
	}
	cell := qr.Rows[0].Cells[0]
	if cell.Value < 70 || cell.Value > 100 {
		t.Fatalf("AVG(revenue| week 10..20) = %v, expected ≈85", cell.Value)
	}
	if qr.BaseRows != 20000 {
		t.Fatalf("base_rows=%d", qr.BaseRows)
	}

	// Append explicit rows in schema order.
	var ar AppendResponse
	appendReq := AppendRequest{Session: "alice", Rows: [][]any{
		{25.0, "east", 100.0},
		{26.0, "west", 112.0},
	}}
	if code := post(t, ts.URL+"/append", appendReq, &ar); code != 200 {
		t.Fatalf("append status %d", code)
	}
	if ar.Appended != 2 || ar.BaseRows != 20002 {
		t.Fatalf("append response %+v", ar)
	}

	// Append generated rows.
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 3000}, &ar); code != 200 {
		t.Fatalf("generate status %d", code)
	}
	if ar.Appended != 3000 || ar.BaseRows != 23002 || ar.Sampled == 0 {
		t.Fatalf("generate response %+v", ar)
	}

	// A fresh query sees the new cardinality.
	if code := post(t, ts.URL+"/query", req, &qr); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if qr.BaseRows != 23002 {
		t.Fatalf("post-append base_rows=%d", qr.BaseRows)
	}

	// Train and read stats.
	var tr TrainResponse
	if code := post(t, ts.URL+"/train", struct{}{}, &tr); code != 200 {
		t.Fatalf("train status %d", code)
	}
	if tr.Snippets == 0 {
		t.Fatal("no snippets after queries")
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
	if st.Table.BaseRows != 23002 || st.System.Total != 2 || st.System.Appends != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, _, ts := fixture(t, 2000, Config{})

	if code := post(t, ts.URL+"/query", QueryRequest{SQL: ""}, nil); code != 400 {
		t.Fatalf("empty sql: %d", code)
	}
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT FROM FROM"}, nil); code != 400 {
		t.Fatalf("parse error: %d", code)
	}
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT AVG(revenue) FROM sales", BudgetMS: -5}, nil); code != 400 {
		t.Fatalf("negative budget_ms: %d", code)
	}
	// A budget past the largest Duration saturates: the whole sample, not
	// the sub-millisecond budget a wrapped multiplication would leave.
	var full, huge QueryResponse
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT AVG(revenue) FROM sales"}, &full); code != 200 {
		t.Fatalf("plain query: %d", code)
	}
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT AVG(revenue) FROM sales", BudgetMS: 18446744073710}, &huge); code != 200 {
		t.Fatalf("huge budget_ms: %d", code)
	}
	if f, h := full.Rows[0].Cells[0], huge.Rows[0].Cells[0]; h.RawValue != f.RawValue || h.RawStdErr != f.RawStdErr || h.RawStdErr == 0 {
		t.Fatalf("huge budget_ms: raw %v ± %v, whole sample %v ± %v", h.RawValue, h.RawStdErr, f.RawValue, f.RawStdErr)
	}
	if code := post(t, ts.URL+"/append", AppendRequest{}, nil); code != 400 {
		t.Fatalf("empty append: %d", code)
	}
	if code := post(t, ts.URL+"/append", AppendRequest{Rows: [][]any{{1.0}}}, nil); code != 400 {
		t.Fatalf("short row: %d", code)
	}
	if code := post(t, ts.URL+"/append", AppendRequest{Rows: [][]any{{"x", "east", 1.0}}}, nil); code != 400 {
		t.Fatalf("kind mismatch: %d", code)
	}
	// GET on a POST endpoint.
	r, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d", r.StatusCode)
	}
}

func TestServerSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, _, ts := fixture(t, 5000, Config{SnapshotDir: dir})

	req := QueryRequest{SQL: "SELECT AVG(revenue) FROM sales WHERE week < 26"}
	if code := post(t, ts.URL+"/query", req, nil); code != 200 {
		t.Fatal("seed query failed")
	}
	var sr SnapshotResponse
	if code := post(t, ts.URL+"/save", PathRequest{Path: "synopsis.json"}, &sr); code != 200 {
		t.Fatal("save failed")
	}
	if sr.Snippets == 0 {
		t.Fatal("saved empty synopsis")
	}
	if _, err := os.Stat(filepath.Join(dir, "synopsis.json")); err != nil {
		t.Fatalf("snapshot not in SnapshotDir: %v", err)
	}
	var lr SnapshotResponse
	if code := post(t, ts.URL+"/load", PathRequest{Path: "synopsis.json"}, &lr); code != 200 {
		t.Fatal("load failed")
	}
	if lr.Snippets != sr.Snippets {
		t.Fatalf("loaded %d snippets, saved %d", lr.Snippets, sr.Snippets)
	}
	if code := post(t, ts.URL+"/load", PathRequest{Path: "missing.json"}, nil); code != 400 {
		t.Fatal("missing snapshot accepted")
	}
	// Path traversal and absolute paths are rejected.
	for _, bad := range []string{"../escape.json", "/etc/passwd", "a/b.json", ".."} {
		if code := post(t, ts.URL+"/save", PathRequest{Path: bad}, nil); code != 400 {
			t.Fatalf("save accepted %q (status %d)", bad, code)
		}
	}
}

func TestServerSnapshotsDisabledWithoutDir(t *testing.T) {
	_, _, ts := fixture(t, 2000, Config{})
	if code := post(t, ts.URL+"/save", PathRequest{Path: "x.json"}, nil); code != 400 {
		t.Fatal("save worked without SnapshotDir")
	}
	if code := post(t, ts.URL+"/load", PathRequest{Path: "x.json"}, nil); code != 400 {
		t.Fatal("load worked without SnapshotDir")
	}
}

// The HTTP-layer acceptance storm: 8 concurrent sessions issue queries
// while another client streams appends; afterwards every served answer is
// replayed serially against its pinned snapshot prefix and must match the
// raw estimates float-for-float (JSON round-trips float64 exactly).
func TestServerConcurrentSessionsWithAppends(t *testing.T) {
	_, sys, ts := fixture(t, 20000, Config{MaxInFlight: 32})

	queries := []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 15",
		"SELECT COUNT(*) FROM sales WHERE region = 'east'",
		"SELECT region, AVG(revenue) FROM sales GROUP BY region",
		"SELECT SUM(revenue) FROM sales WHERE week >= 20 AND week <= 40",
	}
	type served struct {
		sql  string
		resp QueryResponse
	}
	const sessions = 8
	const perSession = 10
	results := make([][]served, sessions)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var appenderWG sync.WaitGroup
	appenderWG.Add(1)
	go func() {
		defer appenderWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var ar AppendResponse
			if code := post(t, ts.URL+"/append", AppendRequest{Session: "appender", Generate: 300, Seed: int64(5000 + i)}, &ar); code != 200 {
				t.Errorf("append status %d", code)
				return
			}
		}
	}()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			session := fmt.Sprintf("sess-%d", s)
			for k := 0; k < perSession; k++ {
				sql := queries[(s+k)%len(queries)]
				var qr QueryResponse
				if code := post(t, ts.URL+"/query", QueryRequest{SQL: sql, Session: session}, &qr); code != 200 {
					t.Errorf("session %d query status %d", s, code)
					return
				}
				results[s] = append(results[s], served{sql: sql, resp: qr})
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	appenderWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Serial replay of every served answer against its snapshot epoch.
	engine := sys.Engine()
	prefixes := map[int]bool{}
	for s := range results {
		for _, sv := range results[s] {
			view := engine.ViewAtGen(sv.resp.SampleGen, sv.resp.BaseRows, sv.resp.SampleRows)
			rep, err := sys.ExecuteView(view, sv.sql)
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			for _, row := range rep.Rows {
				for _, c := range row.Cells {
					got = append(got, c.Raw.Value, c.Raw.StdErr)
				}
			}
			var want []float64
			for _, row := range sv.resp.Rows {
				for _, c := range row.Cells {
					want = append(want, c.RawValue, c.RawStdErr)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%q at base=%d: replay shape %d vs served %d", sv.sql, sv.resp.BaseRows, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%q at base=%d sample=%d: cell %d served %v, replay %v",
						sv.sql, sv.resp.BaseRows, sv.resp.SampleRows, i, want[i], got[i])
				}
			}
			prefixes[sv.resp.BaseRows] = true
		}
	}
	if len(prefixes) < 2 {
		t.Fatalf("all %d queries served from one epoch; appends never interleaved", sessions*perSession)
	}
}

// Admission control: with one worker slot held, requests must shed with 503
// within the queue wait instead of piling up.
func TestServerAdmissionControl(t *testing.T) {
	srv, _, ts := fixture(t, 2000, Config{MaxInFlight: 1, QueueWait: 20 * time.Millisecond})

	srv.slots <- struct{}{} // occupy the only worker slot
	code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server returned %d, want 503", code)
	}
	if srv.rejected.Load() != 1 {
		t.Fatalf("rejected=%d", srv.rejected.Load())
	}
	<-srv.slots // release
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}, nil); code != 200 {
		t.Fatalf("freed server returned %d", code)
	}
}

func TestServerRebuildEndpointAndShardStats(t *testing.T) {
	_, sys, ts := fixture(t, 20000, Config{})

	// Warm the synopsis with a couple of functions so its stats have
	// something to show.
	for _, sql := range []string{
		"SELECT AVG(revenue) FROM sales WHERE week < 20",
		"SELECT COUNT(*) FROM sales WHERE week > 30",
	} {
		if code := post(t, ts.URL+"/query", QueryRequest{SQL: sql}, nil); code != 200 {
			t.Fatalf("query status %d", code)
		}
	}
	// Stream an append so the sample has a tail to re-shuffle.
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 3000}, nil); code != 200 {
		t.Fatalf("append status %d", code)
	}

	// /rebuild must be POST-only and bump the sample generation.
	if r, err := http.Get(ts.URL + "/rebuild"); err != nil || r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rebuild: %v %v", err, r.StatusCode)
	}
	var rb RebuildResponse
	if code := post(t, ts.URL+"/rebuild", struct{}{}, &rb); code != 200 {
		t.Fatalf("rebuild status %d", code)
	}
	if rb.Generation != 1 || rb.SampleRows == 0 {
		t.Fatalf("rebuild response %+v", rb)
	}
	if got := sys.Engine().Acquire().SampleGen; got != 1 {
		t.Fatalf("engine generation %d after /rebuild", got)
	}

	// /stats reflects the synopsis and the rebuild.
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	v := sys.Verdict()
	if syn := st.Synopsis; syn.Functions != 2 || syn.Functions != len(v.FuncIDs()) ||
		syn.Snippets != v.SnippetCount() || syn.FootprintBytes != v.FootprintBytes() || syn.Records == 0 {
		t.Fatalf("synopsis stats %+v disagree with the verdict (%d funcs, %d snippets, %d bytes)",
			syn, len(v.FuncIDs()), v.SnippetCount(), v.FootprintBytes())
	}
	if st.Sample.Generation != 1 || st.Sample.Rebuilds != 1 {
		t.Fatalf("sample stats %+v", st.Sample)
	}
	// Queries served now carry the new generation.
	var qr QueryResponse
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT AVG(revenue) FROM sales WHERE week < 20"}, &qr); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if qr.SampleGen != 1 {
		t.Fatalf("query sample_gen=%d want 1", qr.SampleGen)
	}
}

// The auto-rebuild quiet-period policy, driven entirely on an injected
// fake clock — zero sleeps, zero polling. The background ticker is parked
// on an hour-long interval; the test advances the clock and calls the poll
// body (maybeAutoRebuild) directly, exactly what the ticker would do.
func TestServerAutoRebuildDuringQuietPeriod(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	advance := func(d time.Duration) { clock.Add(int64(d)) }

	tb := salesTable(t, 10000, 42)
	sample, err := aqp.BuildSample(tb, 0.2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{
		Now: func() time.Time { return time.Unix(0, clock.Load()) },
	})
	srv := New(sys, Config{
		RebuildAfterRows:  2000,
		RebuildQuiet:      time.Minute,
		RebuildCheckEvery: time.Hour, // parks the real ticker; the test drives polls
		Generate: func(n int, seed int64) (*storage.Table, error) {
			return salesTable(t, n, seed), nil
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Below the threshold: no amount of quiet arms a rebuild.
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 500}, nil); code != 200 {
		t.Fatal("append failed")
	}
	advance(time.Hour)
	if srv.maybeAutoRebuild() {
		t.Fatal("rebuild fired below the pending-rows threshold")
	}
	if gen := sys.Engine().Acquire().SampleGen; gen != 0 {
		t.Fatalf("gen=%d", gen)
	}

	// Cross the threshold while traffic is fresh: the quiet gate holds.
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 2500}, nil); code != 200 {
		t.Fatal("append failed")
	}
	if srv.maybeAutoRebuild() {
		t.Fatal("rebuild fired inside the quiet window")
	}
	advance(30 * time.Second) // still inside RebuildQuiet
	if srv.maybeAutoRebuild() {
		t.Fatal("rebuild fired with only 30s of quiet")
	}

	// Quiet long enough: exactly one rebuild fires and disarms the trigger.
	advance(31 * time.Second)
	if !srv.maybeAutoRebuild() {
		t.Fatal("auto-rebuild did not fire after the quiet period")
	}
	if gen := sys.Engine().Acquire().SampleGen; gen != 1 {
		t.Fatalf("gen=%d after auto-rebuild", gen)
	}
	if st := sys.StatsSnapshot(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds=%d", st.Rebuilds)
	}
	advance(time.Hour)
	if srv.maybeAutoRebuild() {
		t.Fatal("rebuild re-fired without new appended rows")
	}
	// Close is idempotent and stops the loop.
	srv.Close()
	srv.Close()
}

// TestServerParseErrorDetail pins the error envelope for SQL syntax errors:
// the 400 body's "error" carries the one-line line/column message and
// "detail" the multi-line caret rendering of the offending source line, so
// clients can print exactly where the statement broke.
func TestServerParseErrorDetail(t *testing.T) {
	_, _, ts := fixture(t, 2000, Config{})
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(revenue)\nFROM sales\nWHERE week !"})
	r, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", r.StatusCode)
	}
	var env struct {
		Code   string `json:"code"`
		Error  string `json:"error"`
		Detail string `json:"detail"`
	}
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "bad_request" {
		t.Fatalf("code %q, want bad_request", env.Code)
	}
	if !strings.Contains(env.Error, "line 3") {
		t.Fatalf("error %q does not locate the failure on line 3", env.Error)
	}
	if !strings.Contains(env.Detail, "WHERE week !") || !strings.Contains(env.Detail, "^") {
		t.Fatalf("detail %q missing source line or caret", env.Detail)
	}
	// Non-parse 400s carry no detail: the envelope stays one line.
	body, _ = json.Marshal(QueryRequest{SQL: ""})
	r2, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var env2 struct {
		Detail string `json:"detail"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	if env2.Detail != "" {
		t.Fatalf("missing-sql 400 carries detail %q, want empty", env2.Detail)
	}
}
