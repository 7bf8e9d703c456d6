package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
)

// awaitHandlers blocks until every admitted handler has returned — the
// completion edge Drain waits on, without draining. A handler's deferred
// work (slot and pin release, Progressive/Resumed accounting, closing its
// subscription) all precedes its handlers.Done, so after this returns the
// effects of a killed stream or a dropped subscriber are fully visible.
// Callers must not be starting requests concurrently.
func awaitHandlers(t *testing.T, srv *Server) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		srv.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("handlers still running (%d in flight)", srv.InFlight())
	}
}

// postStreamPartial POSTs a StreamRequest, reads exactly k chunks, drops
// the connection — the client-side half of a mid-stream disconnect — and
// waits for the killed stream's handler to finish unwinding.
func postStreamPartial(t *testing.T, srv *Server, url string, req StreamRequest, k int) []StreamChunk {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer awaitHandlers(t, srv)
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", r.StatusCode)
	}
	var chunks []StreamChunk
	br := bufio.NewReader(r.Body)
	for i := 0; i < k; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading chunk %d: %v", i, err)
		}
		var c StreamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("chunk %d decode: %v", i, err)
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// normalizeChunks zeroes the only nondeterministic chunk field (wall-clock
// inference overhead) so streams can be compared bit-for-bit.
func normalizeChunks(chunks []StreamChunk) []StreamChunk {
	out := append([]StreamChunk(nil), chunks...)
	for i := range out {
		out[i].OverheadUS = 0
	}
	return out
}

// TestStreamResumeBitIdentical is the serving-layer resume property: kill a
// stream after k chunks, age the server (append + rebuild), resume with the
// last chunk's cursor, and the concatenated chunk sequence must be
// bit-identical — every field, cursor included — to an uninterrupted run on
// an identically seeded server. (Wall-clock overhead_us is the one field
// zeroed before comparison.)
func TestStreamResumeBitIdentical(t *testing.T) {
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 30"
	req := StreamRequest{SQL: sql, Session: "alice", MinRows: 256}

	_, _, tsA := fixture(t, 20000, Config{})
	want := postStream(t, tsA.URL, req)
	checkStream(t, "uninterrupted", want)
	if len(want) < 4 {
		t.Fatalf("only %d increments", len(want))
	}
	for i, c := range want {
		if c.Cursor == nil || c.Cursor.RowsSeen != c.RowsSeen || c.Cursor.Seq != c.Seq || c.Cursor.Fingerprint == "" {
			t.Fatalf("chunk %d carries no usable cursor: %+v", i, c.Cursor)
		}
	}

	for _, cut := range []int{1, 2, len(want) - 1} {
		srvB, sysB, tsB := fixture(t, 20000, Config{})
		// Pace the doomed stream so closing the connection interrupts the
		// server mid-stream (the disconnect cancels the request context
		// during the pace sleep): an unpaced server would finish — and
		// record — the whole stream into the socket buffer before the
		// client's close lands. Pacing is not part of the cursor
		// fingerprint, so the chunks are unaffected.
		killedReq := req
		killedReq.PaceMS = 100
		killed := postStreamPartial(t, srvB, tsB.URL, killedReq, cut)
		// Age server B past the stream's snapshot before resuming.
		if code := post(t, tsB.URL+"/append", AppendRequest{Generate: 1500}, nil); code != 200 {
			t.Fatal("append failed")
		}
		if code := post(t, tsB.URL+"/rebuild", struct{}{}, nil); code != 200 {
			t.Fatal("rebuild failed")
		}

		resumeReq := req
		resumeReq.Cursor = killed[cut-1].Cursor
		resumed := postStream(t, tsB.URL, resumeReq)
		got := normalizeChunks(append(killed, resumed...))
		for i, w := range normalizeChunks(want) {
			gj, _ := json.Marshal(got[i])
			wj, _ := json.Marshal(w)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("cut %d chunk %d differs:\n got  %s\n want %s", cut, i, gj, wj)
			}
		}
		// The resumed stream finished naturally: one progressive stream, one
		// resumption, and the full-sample answer recorded once.
		st := sysB.StatsSnapshot()
		if st.Progressive != 1 || st.Resumed != 1 || st.Increments != len(want) {
			t.Fatalf("cut %d: stats %+v", cut, st)
		}
		if sysB.Verdict().SnippetCount() == 0 {
			t.Fatalf("cut %d: resumed stream recorded nothing at exhaustion", cut)
		}
	}
}

// TestStreamTargetCI: a target_ci stream must close with stop_reason
// "target" at exactly the first increment whose raw CI meets the target,
// record nothing, and leave natural exhaustion untouched for unreachable
// targets.
func TestStreamTargetCI(t *testing.T) {
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 30"
	_, _, tsRef := fixture(t, 20000, Config{})
	ref := postStream(t, tsRef.URL, StreamRequest{SQL: sql, MinRows: 256})
	if len(ref) < 4 {
		t.Fatalf("only %d increments", len(ref))
	}
	stopAt := 2
	target := ref[stopAt].RawCI

	_, sys, ts := fixture(t, 20000, Config{})
	chunks := postStream(t, ts.URL, StreamRequest{SQL: sql, MinRows: 256, TargetCI: target})
	if len(chunks) != stopAt+1 {
		t.Fatalf("target stream sent %d chunks, want %d", len(chunks), stopAt+1)
	}
	last := chunks[len(chunks)-1]
	if last.StopReason != "target" || last.Final || last.RawCI > target {
		t.Fatalf("closing chunk: stop_reason=%q final=%v raw_ci=%v (target %v)", last.StopReason, last.Final, last.RawCI, target)
	}
	for i, c := range chunks[:len(chunks)-1] {
		if c.StopReason != "" || c.RawCI <= target {
			t.Fatalf("chunk %d: stop_reason=%q raw_ci=%v under target %v", i, c.StopReason, c.RawCI, target)
		}
	}
	if sys.Verdict().SnippetCount() != 0 {
		t.Fatal("target-stopped stream recorded a partial answer into the synopsis")
	}

	// Relative target: 1% of the estimate is far looser than the final CI
	// here, so the stream stops early with the same contract.
	_, _, ts2 := fixture(t, 20000, Config{})
	rel := postStream(t, ts2.URL, StreamRequest{SQL: sql, MinRows: 256, TargetRelative: true, TargetCI: ref[stopAt].RawCI / ref[stopAt].RawEstimate})
	if got := rel[len(rel)-1]; got.StopReason != "target" || got.Seq != stopAt {
		t.Fatalf("relative target closed with %+v, want stop at seq %d", got, stopAt)
	}

	// An unreachable target exhausts the sample normally (final, recorded).
	_, sys3, ts3 := fixture(t, 20000, Config{})
	full := postStream(t, ts3.URL, StreamRequest{SQL: sql, MinRows: 256, TargetCI: 1e-12})
	checkStream(t, "unreachable target", full)
	if sys3.Verdict().SnippetCount() == 0 {
		t.Fatal("exhausted stream recorded nothing")
	}
}

// horizonFixture builds a server whose system bounds retired generations —
// exercising the core.Config wiring end to end.
func horizonFixture(t *testing.T, rows, maxGens int) (*Server, *core.System, *httptest.Server) {
	t.Helper()
	tb := salesTable(t, rows, 42)
	sample, err := aqp.BuildSample(tb, 0.2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{MaxRetainedGens: maxGens})
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, sys, ts
}

// TestStreamBehindHorizon410: a cursor whose generation was evicted past
// MaxRetainedGens gets the structured 410 (code "behind_replay_horizon"
// plus the current horizon), /stats reports the horizon, and memory for
// retired generations stays bounded.
func TestStreamBehindHorizon410(t *testing.T) {
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 30"
	req := StreamRequest{SQL: sql, MinRows: 256}
	srv, sys, ts := horizonFixture(t, 20000, 1)

	killed := postStreamPartial(t, srv, ts.URL, req, 2)
	cursor := killed[1].Cursor
	if cursor.SampleGen != 0 {
		t.Fatalf("first stream served generation %d", cursor.SampleGen)
	}
	// Two rebuilds retire generations 0 and 1; the bound of 1 evicts 0.
	for i := 0; i < 2; i++ {
		if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
			t.Fatal("rebuild failed")
		}
	}
	if got, h := sys.Engine().RetainedGens(), sys.Engine().ReplayHorizon(); got != 1 || h != 1 {
		t.Fatalf("retained %d generations, horizon %d; want 1 and 1", got, h)
	}

	resumeReq := req
	resumeReq.Cursor = cursor
	body, _ := json.Marshal(resumeReq)
	r, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusGone {
		t.Fatalf("behind-horizon resume status %d, want 410", r.StatusCode)
	}
	var gone GoneResponse
	if err := json.NewDecoder(r.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	if gone.Code != "behind_replay_horizon" || gone.ReplayHorizon != 1 || gone.Error == "" {
		t.Fatalf("structured 410 body %+v", gone)
	}

	// /stats carries the horizon triple.
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Sample.ReplayHorizon != 1 || st.Sample.RetainedGens != 1 || st.Sample.MaxRetainedGens != 1 {
		t.Fatalf("stats sample %+v", st.Sample)
	}

	// A fresh stream on the live generation still resumes fine.
	killed = postStreamPartial(t, srv, ts.URL, req, 1)
	resumeReq.Cursor = killed[0].Cursor
	resumed := postStream(t, ts.URL, resumeReq)
	if len(resumed) == 0 || !resumed[len(resumed)-1].Final {
		t.Fatalf("live-generation resume: %d chunks", len(resumed))
	}
}

// TestStreamPinHoldsHorizonOpen: a live stream pins its generation, so
// rebuild pressure cannot move the replay horizon past it; the pin lifts
// when the stream completes.
func TestStreamPinHoldsHorizonOpen(t *testing.T) {
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 30"
	srv, sys, ts := horizonFixture(t, 20000, 1)

	body, _ := json.Marshal(StreamRequest{SQL: sql, MinRows: 64, PaceMS: 50})
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	// The paced stream is alive on generation 0; pile on rebuilds.
	for i := 0; i < 3; i++ {
		if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
			t.Fatal("rebuild failed")
		}
	}
	if h := sys.Engine().ReplayHorizon(); h != 0 {
		t.Fatalf("replay horizon %d while a live stream pins generation 0", h)
	}
	// Drain the stream; once the handler returns, the pin lifts and the
	// bound of 1 takes effect.
	for {
		if _, err := br.ReadBytes('\n'); err != nil {
			break
		}
	}
	awaitHandlers(t, srv)
	if h := sys.Engine().ReplayHorizon(); h == 0 {
		t.Fatalf("horizon still %d after the stream completed", h)
	}
	if got := sys.Engine().RetainedGens(); got != 1 {
		t.Fatalf("retained %d generations after release, want 1", got)
	}
}

// TestStreamRequestValidation: malformed stream requests are rejected with
// 400 before any work happens.
func TestStreamRequestValidation(t *testing.T) {
	_, _, ts := fixture(t, 2000, Config{})
	sql := "SELECT AVG(revenue) FROM sales"
	fp := streamFingerprint(sql, 0)
	cases := []struct {
		name string
		req  StreamRequest
		want string
	}{
		{"missing sql", StreamRequest{}, "missing sql"},
		{"negative min_rows", StreamRequest{SQL: sql, MinRows: -1}, "min_rows"},
		{"negative pace_ms", StreamRequest{SQL: sql, PaceMS: -5}, "pace_ms"},
		{"negative target_ci", StreamRequest{SQL: sql, TargetCI: -0.5}, "target_ci"},
		{"relative without target", StreamRequest{SQL: sql, TargetRelative: true}, "target_relative"},
		{"cursor negative rows_seen", StreamRequest{SQL: sql, Cursor: &StreamCursor{SampleRows: 10, RowsSeen: -1, Fingerprint: fp}}, "malformed"},
		{"cursor zero sample_rows", StreamRequest{SQL: sql, Cursor: &StreamCursor{RowsSeen: 1, Fingerprint: fp}}, "malformed"},
		{"cursor missing fingerprint", StreamRequest{SQL: sql, Cursor: &StreamCursor{SampleRows: 10, RowsSeen: 1}}, "fingerprint"},
		{"cursor fingerprint mismatch", StreamRequest{SQL: sql, Cursor: &StreamCursor{SampleRows: 10, RowsSeen: 1, Fingerprint: "beef"}}, "fingerprint"},
		{"cursor off schedule", StreamRequest{SQL: sql, MinRows: 0, Cursor: &StreamCursor{SampleRows: 400, BaseRows: 2000, RowsSeen: 3, Seq: 0, Fingerprint: fp}}, "schedule"},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		r, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, r.StatusCode)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}
	// min_rows/pace_ms of zero stay valid (engine defaults).
	chunks := postStream(t, ts.URL, StreamRequest{SQL: sql})
	checkStream(t, "defaults", chunks)
}

// TestStreamMidStreamErrorChunk: an execution failure after chunks have
// been flushed must terminate the NDJSON body with an explicit error chunk
// (stop_reason "error"), not a silent truncation.
func TestStreamMidStreamErrorChunk(t *testing.T) {
	srv, _, ts := fixture(t, 20000, Config{})
	srv.streamFault = func(seq int) error {
		if seq == 1 {
			return errors.New("injected scan failure")
		}
		return nil
	}
	chunks := postStream(t, ts.URL, StreamRequest{SQL: "SELECT AVG(revenue) FROM sales", MinRows: 256})
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want the first increment plus the terminal error chunk", len(chunks))
	}
	if chunks[0].Error != "" || chunks[0].Seq != 0 {
		t.Fatalf("first chunk %+v", chunks[0])
	}
	last := chunks[1]
	if last.StopReason != "error" || !strings.Contains(last.Error, "injected scan failure") || last.Final {
		t.Fatalf("terminal chunk %+v", last)
	}
}

// TestStreamResumeAcrossStormSurvivesReplay: resumed chunks replay through
// ViewAtGen + ExecuteViewPrefix exactly like first-run chunks do.
func TestStreamResumeReplay(t *testing.T) {
	sql := "SELECT COUNT(*) FROM sales WHERE region = 'east'"
	req := StreamRequest{SQL: sql, MinRows: 256}
	srv, sys, ts := fixture(t, 20000, Config{})
	killed := postStreamPartial(t, srv, ts.URL, req, 2)
	resumeReq := req
	resumeReq.Cursor = killed[1].Cursor
	resumed := postStream(t, ts.URL, resumeReq)
	for _, c := range append(killed, resumed...) {
		view := sys.Engine().ViewAtGen(c.SampleGen, c.BaseRows, c.SampleRows)
		if view == nil {
			t.Fatalf("generation %d unavailable", c.SampleGen)
		}
		rep, err := sys.ExecuteViewPrefix(view, sql, c.RowsSeen)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Rows[0].Cells[0].Raw
		want := c.Rows[0].Cells[0]
		if got.Value != want.RawValue || got.StdErr != want.RawStdErr {
			t.Fatalf("chunk seq %d: replay (%v ± %v) != served (%v ± %v)",
				c.Seq, got.Value, got.StdErr, want.RawValue, want.RawStdErr)
		}
	}
	if fmt.Sprint(resumed[len(resumed)-1].RowsSeen) != fmt.Sprint(resumed[len(resumed)-1].SampleRows) {
		t.Fatal("resumed stream did not exhaust the sample")
	}
}
