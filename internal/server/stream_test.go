package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// postStream POSTs a StreamRequest and decodes the NDJSON chunk sequence.
func postStream(t *testing.T, url string, req StreamRequest) []StreamChunk {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	var chunks []StreamChunk
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c StreamChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("chunk decode: %v (%s)", err, sc.Bytes())
		}
		chunks = append(chunks, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return chunks
}

// checkStream asserts the per-stream invariants every progressive response
// must satisfy: strictly increasing rows_seen ending at the full sample, a
// single terminal final chunk, and one sample generation throughout (an
// increment must never mix generations, whatever rebuilds land mid-stream).
func checkStream(t *testing.T, label string, chunks []StreamChunk) {
	t.Helper()
	if len(chunks) == 0 {
		t.Fatalf("%s: empty stream", label)
	}
	prevRows := 0
	for i, c := range chunks {
		if c.Seq != i {
			t.Fatalf("%s: chunk %d has seq %d", label, i, c.Seq)
		}
		if c.RowsSeen <= prevRows {
			t.Fatalf("%s: rows_seen %d after %d", label, c.RowsSeen, prevRows)
		}
		prevRows = c.RowsSeen
		if c.SampleGen != chunks[0].SampleGen || c.BaseRows != chunks[0].BaseRows || c.SampleRows != chunks[0].SampleRows {
			t.Fatalf("%s: chunk %d snapshot (gen %d, base %d, sample %d) differs from chunk 0 (gen %d, base %d, sample %d)",
				label, i, c.SampleGen, c.BaseRows, c.SampleRows,
				chunks[0].SampleGen, chunks[0].BaseRows, chunks[0].SampleRows)
		}
		if c.Final != (i == len(chunks)-1) {
			t.Fatalf("%s: chunk %d final=%v", label, i, c.Final)
		}
	}
	last := chunks[len(chunks)-1]
	if last.RowsSeen != last.SampleRows {
		t.Fatalf("%s: final chunk saw %d of %d sample rows", label, last.RowsSeen, last.SampleRows)
	}
}

func TestQueryStreamProgressiveAndReplay(t *testing.T) {
	_, sys, ts := fixture(t, 20000, Config{})
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 30"
	chunks := postStream(t, ts.URL, StreamRequest{SQL: sql, Session: "alice", MinRows: 256})
	checkStream(t, sql, chunks)
	if len(chunks) < 4 {
		t.Fatalf("only %d increments", len(chunks))
	}
	for _, c := range chunks {
		if !c.Supported || len(c.Rows) != 1 || len(c.Rows[0].Cells) != 1 {
			t.Fatalf("chunk shape %+v", c)
		}
		if c.Estimate < 70 || c.Estimate > 110 {
			t.Fatalf("estimate %v at %d rows", c.Estimate, c.RowsSeen)
		}
		if c.CI <= 0 || c.RawCI <= 0 {
			t.Fatalf("degenerate CI %v/%v at %d rows", c.CI, c.RawCI, c.RowsSeen)
		}
	}
	// Age the server past the stream's snapshot, then audit every chunk.
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 2000}, nil); code != 200 {
		t.Fatal("append failed")
	}
	if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
		t.Fatal("rebuild failed")
	}
	for _, c := range chunks {
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
			t.Fatalf("chunk @%d rows: replay (%v ± %v) != served (%v ± %v)",
				c.RowsSeen, got.Value, got.StdErr, want.RawValue, want.RawStdErr)
		}
	}
	// The workload counters saw one progressive stream with these increments.
	st := sys.StatsSnapshot()
	if st.Progressive != 1 || st.Increments != len(chunks) {
		t.Fatalf("progressive stats %+v after %d chunks", st, len(chunks))
	}
}

func TestQueryStreamErrorsAndUnsupported(t *testing.T) {
	_, _, ts := fixture(t, 2000, Config{})
	body, _ := json.Marshal(StreamRequest{SQL: "SELECT FROM FROM"})
	r, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status %d", r.StatusCode)
	}
	body, _ = json.Marshal(StreamRequest{SQL: ""})
	r, err = http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql status %d", r.StatusCode)
	}
	// Unsupported queries terminate with a single supported=false chunk.
	chunks := postStream(t, ts.URL, StreamRequest{SQL: "SELECT MAX(revenue) FROM sales"})
	if len(chunks) != 1 || chunks[0].Supported || !chunks[0].Final || len(chunks[0].Reasons) == 0 {
		t.Fatalf("unsupported stream %+v", chunks)
	}
}

// TestQueryStreamStorm is the acceptance storm (run it under -race): 8
// concurrent streaming sessions interleaved with append batches and a
// forced sample rebuild. Every stream must hold one sample generation, its
// raw 95% half-width must shrink monotonically as increments double, and
// every chunk must replay bit-for-bit afterwards.
func TestQueryStreamStorm(t *testing.T) {
	_, sys, ts := fixture(t, 20000, Config{MaxInFlight: 32})

	// Ungrouped only: the monotone-CI assertion reads the first-cell
	// summary, which is the whole answer here. Uniform measures keep the
	// sample variance stable, so doubling the prefix must shrink the raw
	// CLT half-width (≈ ×1/√2 per increment).
	queries := []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 30",
		"SELECT COUNT(*) FROM sales WHERE region = 'east'",
	}
	const sessions = 8
	const perSession = 2
	streams := make([][][]StreamChunk, sessions)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var aux sync.WaitGroup
	appended := make(chan struct{}) // closed once the first append has returned
	signal := sync.OnceFunc(func() { close(appended) })
	aux.Add(1)
	go func() { // appends racing the streams
		defer aux.Done()
		defer signal() // however the loop ends, the rebuild never waits forever
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code := post(t, ts.URL+"/append", AppendRequest{Session: "appender", Generate: 400, Seed: int64(9000 + i)}, nil)
			signal()
			if code != 200 {
				t.Errorf("append status %d", code)
				return
			}
		}
	}()
	aux.Add(1)
	go func() { // a mid-storm epoch swap, on the storm's first append
		defer aux.Done()
		<-appended
		if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
			t.Errorf("rebuild status %d", code)
		}
	}()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSession; k++ {
				sql := queries[(s+k)%len(queries)]
				chunks := postStream(t, ts.URL, StreamRequest{
					SQL: sql, Session: fmt.Sprintf("stream-%d", s), MinRows: 256,
				})
				streams[s] = append(streams[s], chunks)
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		t.FailNow()
	}

	gens := map[uint64]bool{}
	for s := range streams {
		for k, chunks := range streams[s] {
			label := fmt.Sprintf("session %d stream %d", s, k)
			checkStream(t, label, chunks)
			gens[chunks[0].SampleGen] = true
			prevCI := 0.0
			for i, c := range chunks {
				if c.RawCI <= 0 {
					t.Fatalf("%s chunk %d: degenerate raw CI %v", label, i, c.RawCI)
				}
				if i > 0 && c.RawCI > prevCI {
					t.Fatalf("%s: raw CI grew %v -> %v at %d rows", label, prevCI, c.RawCI, c.RowsSeen)
				}
				prevCI = c.RawCI
			}
			// Serial audit: every increment replays float-identically from
			// its generation-pinned prefix.
			sql := queries[(s+k)%len(queries)]
			for _, c := range chunks {
				view := sys.Engine().ViewAtGen(c.SampleGen, c.BaseRows, c.SampleRows)
				if view == nil {
					t.Fatalf("%s: generation %d lost", label, c.SampleGen)
				}
				rep, err := sys.ExecuteViewPrefix(view, sql, c.RowsSeen)
				if err != nil {
					t.Fatal(err)
				}
				got := rep.Rows[0].Cells[0].Raw
				want := c.Rows[0].Cells[0]
				if got.Value != want.RawValue || got.StdErr != want.RawStdErr {
					t.Fatalf("%s @%d rows gen %d: replay (%v ± %v) != served (%v ± %v)",
						label, c.RowsSeen, c.SampleGen, got.Value, got.StdErr, want.RawValue, want.RawStdErr)
				}
			}
		}
	}
	if sys.Engine().Acquire().SampleGen == 0 {
		t.Fatal("rebuild never landed during the storm")
	}
}

// TestStreamClientDisconnectFreesSlot: a client abandoning its stream must
// release the worker slot promptly — /stats in-flight returns to zero while
// the stream would still have been running — so a dead client can neither
// exhaust admission nor pin the auto-rebuild quiet gate forever.
func TestStreamClientDisconnectFreesSlot(t *testing.T) {
	srv, _, ts := fixture(t, 20000, Config{MaxInFlight: 2})

	body, _ := json.Marshal(StreamRequest{
		SQL: "SELECT AVG(revenue) FROM sales", MinRows: 64, PaceMS: 100,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read exactly one chunk — the stream is alive and holds a slot.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	if got := srv.InFlight(); got != 1 {
		t.Fatalf("in-flight %d with a live stream", got)
	}
	// Walk away mid-stream. The handler returns at its next increment (the
	// pace wait watches the context), and it frees its slot before that.
	cancel()
	awaitHandlers(t, srv)
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("disconnected stream still holds a slot (in-flight %d)", got)
	}
	// /stats agrees, and the freed slot admits new work immediately.
	var st StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Server.InFlight != 0 || st.Server.Streams != 1 {
		t.Fatalf("stats after disconnect: %+v", st.Server)
	}
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}, nil); code != 200 {
		t.Fatalf("query after disconnect: %d", code)
	}
}

// TestServerGracefulDrain: draining finishes in-flight streams (to their
// final chunk) while shedding new requests with 503.
func TestServerGracefulDrain(t *testing.T) {
	srv, _, ts := fixture(t, 20000, Config{MaxInFlight: 8})

	started := make(chan struct{})
	finished := make(chan []StreamChunk, 1)
	go func() {
		body, _ := json.Marshal(StreamRequest{
			SQL: "SELECT AVG(revenue) FROM sales WHERE week < 40", MinRows: 64, PaceMS: 30,
		})
		resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(started)
			finished <- nil
			return
		}
		defer resp.Body.Close()
		var chunks []StreamChunk
		sc := bufio.NewScanner(resp.Body)
		first := true
		for sc.Scan() {
			var c StreamChunk
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
				t.Error(err)
				break
			}
			chunks = append(chunks, c)
			if first {
				close(started)
				first = false
			}
		}
		finished <- chunks
	}()
	<-started

	// Begin draining with the stream in flight: new work is shed at once…
	srv.BeginDrain()
	if code := post(t, ts.URL+"/query", QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted a query (status %d)", code)
	}
	// …while /stats still answers and reports the drain.
	var st StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !st.Server.Draining {
		t.Fatal("stats does not report draining")
	}
	// Drain must wait for the stream's last chunk, not cut it off.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	chunks := <-finished
	checkStream(t, "drained stream", chunks)

	// A drain with nothing in flight returns immediately, and an expired
	// deadline surfaces as an error when work cannot finish (simulated by
	// holding a slot directly).
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	srv.handlers.Add(1)
	expCtx, expCancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer expCancel()
	if err := srv.Drain(expCtx); err == nil {
		t.Fatal("drain ignored its deadline")
	}
	srv.handlers.Done()
}
