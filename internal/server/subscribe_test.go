package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// subStream is one open /subscribe NDJSON connection.
type subStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

func openSubscribe(t *testing.T, baseURL string, req SubscribeRequest) *subStream {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &subStream{body: resp.Body, sc: sc}
}

// next reads one chunk; ok=false on stream end.
func (s *subStream) next(t *testing.T) (StreamChunk, bool) {
	t.Helper()
	if !s.sc.Scan() {
		return StreamChunk{}, false
	}
	var c StreamChunk
	if err := json.Unmarshal(s.sc.Bytes(), &c); err != nil {
		t.Fatalf("bad chunk %q: %v", s.sc.Bytes(), err)
	}
	return c, true
}

// replayChunkRaw audits one pushed chunk's raw cells against a fresh
// one-shot replay at its pinned (sample_gen, base_rows, sample_rows)
// triple — bit-identical after the JSON round-trip (float64 survives Go's
// JSON encoding exactly).
func replayChunkRaw(t *testing.T, sys *core.System, sql string, c StreamChunk) {
	t.Helper()
	view := sys.Engine().ViewAtGen(c.SampleGen, c.BaseRows, c.SampleRows)
	if view == nil {
		t.Fatalf("ViewAtGen(%d, %d, %d) = nil: pushed chunk not replayable", c.SampleGen, c.BaseRows, c.SampleRows)
	}
	rep, err := sys.ExecuteView(view, sql)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, row := range rep.Rows {
		for _, cell := range row.Cells {
			got = append(got, cell.Raw.Value, cell.Raw.StdErr)
		}
	}
	var want []float64
	for _, row := range c.Rows {
		for _, cell := range row.Cells {
			want = append(want, cell.RawValue, cell.RawStdErr)
		}
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("replay shape at gen %d: %d vs %d cells", c.SampleGen, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunk seq %d at gen=%d base=%d: cell %d pushed %v, replay %v",
				c.Seq, c.SampleGen, c.BaseRows, i, want[i], got[i])
		}
	}
}

// TestServerSubscribeStorm is the -race acceptance storm: 8 subscriptions
// with mixed thresholds on ONE standing query, concurrent append streams,
// a mid-storm /rebuild, and abrupt client disconnects. Afterwards: every
// chunk a persistent reader received replays bit-identically; one shared
// scan ran per notify batch (metric-asserted: the 8 subscribers never
// multiplied the scan work); every generation pin is released; and the
// /stats in-flight and subscription gauges are back to 0.
func TestServerSubscribeStorm(t *testing.T) {
	srv, sys, ts := fixture(t, 20000, Config{MaxInFlight: 32})
	defer srv.Close()
	sql := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 15"

	const subscribers = 8
	streams := make([]*subStream, subscribers)
	for i := range streams {
		req := SubscribeRequest{SQL: sql, Session: fmt.Sprintf("sub-%d", i)}
		switch i % 3 {
		case 1:
			req.DeltaRel = 1e-9 // threshold path, passes on any movement
		case 2:
			req.DeltaCI = 1e12 // effectively mute after the initial push
		}
		streams[i] = openSubscribe(t, ts.URL, req)
		c, ok := streams[i].next(t)
		if !ok || c.PushReason != core.PushReasonSubscribe || c.Seq != 0 {
			t.Fatalf("subscriber %d initial chunk: ok=%v %+v", i, ok, c)
		}
	}

	// Persistent readers (0..4) consume until the stream ends, checking seq
	// monotonicity (coalescing may gap, never reorder) and collecting
	// chunks for the replay audit. Disconnectors (5..7) drop abruptly
	// mid-storm.
	const persistent = 5
	collected := make([][]StreamChunk, persistent)
	var readers sync.WaitGroup
	for i := 0; i < persistent; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			last := 0 // initial chunk was seq 0
			for {
				c, ok := streams[i].next(t)
				if !ok {
					return
				}
				if c.Seq <= last {
					t.Errorf("reader %d: seq %d after %d", i, c.Seq, last)
					return
				}
				last = c.Seq
				collected[i] = append(collected[i], c)
			}
		}(i)
	}

	const appendsPerWorker, workers = 8, 2
	var storm sync.WaitGroup
	for w := 0; w < workers; w++ {
		storm.Add(1)
		go func(w int) {
			defer storm.Done()
			for i := 0; i < appendsPerWorker; i++ {
				var ar AppendResponse
				if code := post(t, ts.URL+"/append", AppendRequest{Generate: 300, Seed: int64(9000 + w*100 + i)}, &ar); code != 200 {
					t.Errorf("append status %d", code)
					return
				}
				if w == 0 && i == 3 { // mid-storm generation swap
					if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
						t.Errorf("rebuild status %d", code)
						return
					}
				}
				if w == 1 && i == 4 { // abrupt disconnects mid-storm
					for d := persistent; d < subscribers; d++ {
						streams[d].body.Close()
					}
				}
			}
		}(w)
	}
	storm.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Shared-scan economics: the plan was created once (one full fold) and
	// each mutation ran exactly one incremental scan, regardless of 8
	// subscribers. NotifyBatches is one per mutation that saw the plan.
	st := sys.StatsSnapshot()
	wantBatches := workers*appendsPerWorker + 1 // appends + the mid-storm rebuild
	if st.NotifyBatches != wantBatches {
		t.Fatalf("NotifyBatches=%d, want %d", st.NotifyBatches, wantBatches)
	}
	if st.NotifyScans != st.NotifyBatches+1 {
		t.Fatalf("NotifyScans=%d with %d batches: scans must be shared, one per batch plus the plan's creation fold",
			st.NotifyScans, st.NotifyBatches)
	}

	// Tear down the persistent subscribers and wait for the handlers to
	// notice the disconnects.
	for i := 0; i < persistent; i++ {
		streams[i].body.Close()
	}
	readers.Wait()
	awaitHandlers(t, srv)
	if n := sys.ActiveSubscriptions(); n != 0 {
		t.Fatalf("ActiveSubscriptions=%d after all clients left", n)
	}
	if n := sys.Engine().PinnedGens(); n != 0 {
		t.Fatalf("PinnedGens=%d after teardown: subscriptions leaked generation pins", n)
	}
	var stats StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Subscriptions != 0 || stats.Server.InFlight != 0 {
		t.Fatalf("post-storm gauges: subscriptions=%d in_flight=%d, want 0/0",
			stats.Server.Subscriptions, stats.Server.InFlight)
	}

	// Replay audit: every chunk the zero-threshold readers kept must
	// reproduce bit-for-bit from its pinned provenance.
	audited := 0
	for i := 0; i < persistent; i += 3 { // readers 0 and 3: zero thresholds
		for _, c := range collected[i] {
			replayChunkRaw(t, sys, sql, c)
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("storm produced no auditable chunks")
	}
}

// TestServerSubscribeCoalesceBackpressure: a subscriber that never reads,
// behind a 1-slot queue, must not slow appends or starve a healthy
// subscriber; its pushes coalesce to the latest (counter surfaced through
// /stats), and the latest still replays.
func TestServerSubscribeCoalesceBackpressure(t *testing.T) {
	srv, sys, ts := fixture(t, 10000, Config{})
	defer srv.Close()
	sql := "SELECT COUNT(*) FROM sales WHERE region = 'east'"

	// The stalled consumer registers at the hub directly (the HTTP handler
	// would drain its queue into socket buffers); the healthy one goes
	// through the full endpoint.
	stalled, err := sys.Subscribe(sql, core.SubscribeOptions{Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	healthy := openSubscribe(t, ts.URL, SubscribeRequest{SQL: sql})
	defer healthy.body.Close()
	if c, ok := healthy.next(t); !ok || c.Seq != 0 {
		t.Fatalf("healthy initial chunk: ok=%v %+v", ok, c)
	}

	const appends = 5
	for i := 0; i < appends; i++ {
		if code := post(t, ts.URL+"/append", AppendRequest{Generate: 200, Seed: int64(300 + i)}, nil); code != 200 {
			t.Fatalf("append %d status %d: a stalled subscriber must never block the hub", i, code)
		}
	}
	// The healthy subscriber received every update, in order and gapless.
	for want := 1; want <= appends; want++ {
		c, ok := healthy.next(t)
		if !ok || c.Seq != want || c.PushReason != core.PushReasonAppend {
			t.Fatalf("healthy chunk: ok=%v seq=%d reason=%q, want seq %d reason append", ok, c.Seq, c.PushReason, want)
		}
	}
	// The stalled one's slot holds only the latest; every overwrite was
	// counted and is visible through the /stats system counters.
	var stats StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.System.NotifyCoalesced != appends {
		t.Fatalf("NotifyCoalesced=%d, want %d", stats.System.NotifyCoalesced, appends)
	}
	upd, ok := stalled.TryNext()
	if !ok || upd.Seq != appends {
		t.Fatalf("stalled queue holds seq %d (ok=%v), want the latest seq %d — the gap tells it what it missed",
			upd.Seq, ok, appends)
	}
	if _, extra := stalled.TryNext(); extra {
		t.Fatal("stalled queue exceeded its slot")
	}
}

// TestServerSubscribeDrain: draining completes in-flight pushes, then each
// open subscription receives a terminal chunk with stop_reason "drain"
// before EOF, Drain itself returns cleanly, and new subscriptions shed.
func TestServerSubscribeDrain(t *testing.T) {
	srv, _, ts := fixture(t, 5000, Config{})
	defer srv.Close()
	sql := "SELECT AVG(revenue) FROM sales WHERE week < 26"
	st := openSubscribe(t, ts.URL, SubscribeRequest{SQL: sql})
	defer st.body.Close()
	if c, ok := st.next(t); !ok || c.PushReason != core.PushReasonSubscribe {
		t.Fatalf("initial chunk: ok=%v %+v", ok, c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(ctx) }()

	term, ok := st.next(t)
	if !ok || term.StopReason != "drain" || !term.Supported {
		t.Fatalf("terminal chunk: ok=%v %+v", ok, term)
	}
	if c, ok := st.next(t); ok {
		t.Fatalf("chunk after the terminal one: %+v", c)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v (the open subscription must not hold the drain)", err)
	}
	if code := post(t, ts.URL+"/subscribe", SubscribeRequest{SQL: sql}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain subscribe status %d, want 503", code)
	}
}

// TestServerSubscribeDebounceSaturates: a debounce_ms too large for a
// Duration saturates instead of wrapping to a negative interval, so an
// append after the initial chunk is debounced and the next thing the
// subscriber reads is the drain's terminal chunk, not a push.
func TestServerSubscribeDebounceSaturates(t *testing.T) {
	srv, sys, ts := fixture(t, 5000, Config{})
	defer srv.Close()
	st := openSubscribe(t, ts.URL, SubscribeRequest{
		SQL: "SELECT AVG(revenue) FROM sales WHERE week < 26", DebounceMS: 9_223_372_036_855,
	})
	defer st.body.Close()
	if c, ok := st.next(t); !ok || c.Seq != 0 {
		t.Fatalf("initial chunk: ok=%v %+v", ok, c)
	}
	if code := post(t, ts.URL+"/append", AppendRequest{Generate: 200, Seed: 11}, nil); code != 200 {
		t.Fatalf("append status %d", code)
	}
	if d := sys.StatsSnapshot().NotifyDebounced; d != 1 {
		t.Fatalf("NotifyDebounced = %d after one append, want 1", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(ctx) }()
	if c, ok := st.next(t); !ok || c.StopReason != "drain" {
		t.Fatalf("chunk after seq 0: ok=%v seq=%d push_reason=%q stop_reason=%q, want the drain chunk",
			ok, c.Seq, c.PushReason, c.StopReason)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestServerSubscribeValidation pins the request contract: malformed
// bodies and unsupportable standing statements 400 (GROUP BY statements
// stand since the grouped fold landed — see TestServerSubscribeStormGrouped),
// and the subscription cap sheds with 503 without disturbing the stream
// already open.
func TestServerSubscribeValidation(t *testing.T) {
	srv, _, ts := fixture(t, 5000, Config{MaxSubscriptions: 1})
	defer srv.Close()
	for _, req := range []SubscribeRequest{
		{},
		{SQL: "SELECT AVG(revenue) FROM sales", DeltaCI: -1},
		{SQL: "SELECT AVG(revenue) FROM sales", DeltaRel: -0.5},
		{SQL: "SELECT AVG(revenue) FROM sales", Queue: -2},
		{SQL: "SELECT AVG(revenue) FROM sales", DebounceMS: -5},
		{SQL: "not sql at all"},
	} {
		if code := post(t, ts.URL+"/subscribe", req, nil); code != http.StatusBadRequest {
			t.Fatalf("subscribe(%+v) status %d, want 400", req, code)
		}
	}
	st := openSubscribe(t, ts.URL, SubscribeRequest{SQL: "SELECT AVG(revenue) FROM sales"})
	defer st.body.Close()
	if _, ok := st.next(t); !ok {
		t.Fatal("no initial chunk")
	}
	if code := post(t, ts.URL+"/subscribe", SubscribeRequest{SQL: "SELECT AVG(revenue) FROM sales"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap subscribe status %d, want 503", code)
	}
	if srv.subscribers.Load() != 1 {
		t.Fatalf("subscriber gauge %d after shed, want 1", srv.subscribers.Load())
	}
}

// TestServerSubscribeQueueBound: a queue above maxQueue is refused with a
// 400 that names the bound, so a subscriber that stops reading cannot make
// the server hold an unbounded backlog of pushed Results; maxQueue itself
// is accepted.
func TestServerSubscribeQueueBound(t *testing.T) {
	srv, _, ts := fixture(t, 5000, Config{})
	defer srv.Close()
	for _, q := range []int{maxQueue + 1, 1 << 40} {
		body, err := json.Marshal(SubscribeRequest{SQL: "SELECT AVG(revenue) FROM sales", Queue: q})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/subscribe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			// An accepted subscription streams until closed: do not read it.
			resp.Body.Close()
			t.Fatalf("subscribe with queue %d: status %d, want 400", q, resp.StatusCode)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(msg), strconv.Itoa(maxQueue)) {
			t.Fatalf("queue %d refused with %s, which does not name the bound %d", q, msg, maxQueue)
		}
	}
	st := openSubscribe(t, ts.URL, SubscribeRequest{SQL: "SELECT AVG(revenue) FROM sales", Queue: maxQueue})
	defer st.body.Close()
	if _, ok := st.next(t); !ok {
		t.Fatal("no initial chunk at the queue bound")
	}
}

// TestServerSubscribeStormGrouped is the grouped acceptance storm: the same
// concurrent shape as TestServerSubscribeStorm but the standing query GROUPs
// BY region, so every pushed chunk carries multiple group rows produced by
// the carried grouped fold. The invariants carry over unchanged: one shared
// incremental scan per notify batch regardless of subscriber count
// (NotifyScans == NotifyBatches + the plan's creation fold), every chunk a
// zero-threshold reader kept replays bit-identically, and teardown releases
// every pin and gauge.
func TestServerSubscribeStormGrouped(t *testing.T) {
	srv, sys, ts := fixture(t, 20000, Config{MaxInFlight: 32})
	defer srv.Close()
	sql := "SELECT region, AVG(revenue), COUNT(*) FROM sales GROUP BY region"

	const subscribers = 8
	streams := make([]*subStream, subscribers)
	for i := range streams {
		req := SubscribeRequest{SQL: sql, Session: fmt.Sprintf("gsub-%d", i)}
		switch i % 3 {
		case 1:
			req.DeltaRel = 1e-9
		case 2:
			req.DeltaCI = 1e12
		}
		streams[i] = openSubscribe(t, ts.URL, req)
		c, ok := streams[i].next(t)
		if !ok || c.PushReason != core.PushReasonSubscribe || c.Seq != 0 {
			t.Fatalf("subscriber %d initial chunk: ok=%v %+v", i, ok, c)
		}
		if len(c.Rows) != 2 {
			t.Fatalf("subscriber %d initial chunk has %d group rows, want 2", i, len(c.Rows))
		}
	}

	const persistent = 5
	collected := make([][]StreamChunk, persistent)
	var readers sync.WaitGroup
	for i := 0; i < persistent; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			last := 0
			for {
				c, ok := streams[i].next(t)
				if !ok {
					return
				}
				if c.Seq <= last {
					t.Errorf("reader %d: seq %d after %d", i, c.Seq, last)
					return
				}
				last = c.Seq
				collected[i] = append(collected[i], c)
			}
		}(i)
	}

	const appendsPerWorker, workers = 8, 2
	var storm sync.WaitGroup
	for w := 0; w < workers; w++ {
		storm.Add(1)
		go func(w int) {
			defer storm.Done()
			for i := 0; i < appendsPerWorker; i++ {
				var ar AppendResponse
				if code := post(t, ts.URL+"/append", AppendRequest{Generate: 300, Seed: int64(11000 + w*100 + i)}, &ar); code != 200 {
					t.Errorf("append status %d", code)
					return
				}
				if w == 0 && i == 3 {
					if code := post(t, ts.URL+"/rebuild", struct{}{}, nil); code != 200 {
						t.Errorf("rebuild status %d", code)
						return
					}
				}
				if w == 1 && i == 4 {
					for d := persistent; d < subscribers; d++ {
						streams[d].body.Close()
					}
				}
			}
		}(w)
	}
	storm.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Shared-scan economics hold for the grouped fold too: 8 subscribers on
	// one GROUP BY plan cost one incremental grouped scan per mutation.
	st := sys.StatsSnapshot()
	wantBatches := workers*appendsPerWorker + 1
	if st.NotifyBatches != wantBatches {
		t.Fatalf("NotifyBatches=%d, want %d", st.NotifyBatches, wantBatches)
	}
	if st.NotifyScans != st.NotifyBatches+1 {
		t.Fatalf("NotifyScans=%d with %d batches: grouped scans must be shared, one per batch plus the creation fold",
			st.NotifyScans, st.NotifyBatches)
	}

	for i := 0; i < persistent; i++ {
		streams[i].body.Close()
	}
	readers.Wait()
	awaitHandlers(t, srv)
	if n := sys.ActiveSubscriptions(); n != 0 {
		t.Fatalf("ActiveSubscriptions=%d after all clients left", n)
	}
	if n := sys.Engine().PinnedGens(); n != 0 {
		t.Fatalf("PinnedGens=%d after teardown: grouped subscriptions leaked generation pins", n)
	}

	audited := 0
	for i := 0; i < persistent; i += 3 { // readers 0 and 3: zero thresholds
		for _, c := range collected[i] {
			if len(c.Rows) != 2 {
				t.Fatalf("reader %d seq %d: %d group rows, want 2", i, c.Seq, len(c.Rows))
			}
			replayChunkRaw(t, sys, sql, c)
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("grouped storm produced no auditable chunks")
	}
}
