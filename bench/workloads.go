package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// record is one timed answer with the provenance needed to replay it.
type record struct {
	sql        string
	gen        uint64
	baseRows   int
	sampleRows int
	rowsSeen   int // sample prefix of a streamed chunk; -1 for a one-shot answer
	rows       []server.Row
}

// observations is what the clients saw during one timed phase. Each client
// goroutine fills its own and the phase merges them.
type observations struct {
	wall     time.Duration
	opMS     []float64 // the workload's primary operation, send → complete
	firstMS  []float64 // send → first result (headers, first chunk, or push received)
	readerMS []float64 // live only: the concurrent reader's /query latency
	chunks   []float64 // stream only: chunks per stream
	ratios   []float64 // stderr ÷ raw_stderr over the AVG and COUNT cells of query answers
	records  []record

	cells, modelCells      int // cells seen, cells with used_model
	streams, firstOnTarget int // streams, and those whose first chunk's improved CI met the target
	violations             []string
}

func (o *observations) merge(p *observations) {
	o.opMS = append(o.opMS, p.opMS...)
	o.firstMS = append(o.firstMS, p.firstMS...)
	o.readerMS = append(o.readerMS, p.readerMS...)
	o.chunks = append(o.chunks, p.chunks...)
	o.ratios = append(o.ratios, p.ratios...)
	o.records = append(o.records, p.records...)
	o.cells += p.cells
	o.modelCells += p.modelCells
	o.streams += p.streams
	o.firstOnTarget += p.firstOnTarget
	o.violations = append(o.violations, p.violations...)
}

func (o *observations) violate(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// seeCells applies the per-answer checks to one set of rows: Theorem 1
// (improved error never above raw) on every AVG and COUNT cell with a
// finite raw error. For query answers (not pushes) it also collects the
// error-reduction ratios and the model-use counts. SUM is left out: its
// first-order product error in query.ComposeAggregate depends on the
// improved values too, so the inequality is not guaranteed cell-wise.
func (o *observations) seeCells(sql string, rows []server.Row, answer bool) {
	for _, row := range rows {
		for _, c := range row.Cells {
			if answer {
				o.cells++
				if c.UsedModel {
					o.modelCells++
				}
			}
			if c.Agg != "AVG" && c.Agg != "COUNT" {
				continue
			}
			if math.IsNaN(c.RawStdErr) || math.IsInf(c.RawStdErr, 0) || c.RawStdErr >= math.MaxFloat64/2 {
				continue
			}
			if c.StdErr > c.RawStdErr*(1+1e-9) {
				o.violate("theorem 1: %s cell stderr %g > raw_stderr %g in %q", c.Agg, c.StdErr, c.RawStdErr, sql)
			}
			if answer && c.RawStdErr > 0 {
				o.ratios = append(o.ratios, c.StdErr/c.RawStdErr)
			}
		}
	}
}

// queryOp issues one /query and records it; reader selects the live
// reader's latency series instead of the primary one.
func queryOp(c *client, t *tally, o *observations, sql string, reader bool) {
	t.attempted.Add(1)
	var resp server.QueryResponse
	r, err := c.post("/query", server.QueryRequest{SQL: sql}, &resp)
	if err != nil {
		t.fail("%v", err)
		return
	}
	if !resp.Supported || len(resp.Rows) == 0 {
		t.fail("/query: no rows for %q (supported=%v)", sql, resp.Supported)
		return
	}
	if reader {
		o.readerMS = append(o.readerMS, ms(float64(r.total)))
	} else {
		o.opMS = append(o.opMS, ms(float64(r.total)))
		o.firstMS = append(o.firstMS, ms(float64(r.first)))
	}
	o.seeCells(sql, resp.Rows, true)
	o.records = append(o.records, record{
		sql: sql, gen: resp.SampleGen, baseRows: resp.BaseRows, sampleRows: resp.SampleRows,
		rowsSeen: -1, rows: resp.Rows,
	})
}

// onTarget reports whether every cell's improved 95% half-width is within
// the stream target — what a server stopping on the improved interval
// would test. The server stops on the raw interval today.
func onTarget(rows []server.Row) bool {
	for _, row := range rows {
		for _, c := range row.Cells {
			if !(c.ErrBound <= targetCI*math.Abs(c.Value)) {
				return false
			}
		}
	}
	return len(rows) > 0
}

// streamOp runs one progressive query to its terminal chunk (target met or
// sample exhausted), reading every chunk.
func streamOp(c *client, t *tally, o *observations, sql string) {
	t.attempted.Add(1)
	var first, done time.Duration
	var last server.StreamChunk
	n := 0
	req := server.StreamRequest{SQL: sql, TargetCI: targetCI, TargetRelative: true}
	err := c.stream("/query/stream", req, func(ch server.StreamChunk, at time.Duration) bool {
		if n == 0 {
			first = at
			if onTarget(ch.Rows) {
				o.firstOnTarget++
			}
		}
		n++
		done, last = at, ch
		return true
	})
	switch {
	case err != nil:
		t.fail("%v", err)
		return
	case n == 0 || last.StopReason == "error" || !(last.Final || last.StopReason == "target") || len(last.Rows) == 0:
		t.fail("/query/stream: %d chunks, terminal stop_reason %q final=%v for %q", n, last.StopReason, last.Final, sql)
		return
	}
	o.streams++
	o.opMS = append(o.opMS, ms(float64(done)))
	o.firstMS = append(o.firstMS, ms(float64(first)))
	o.chunks = append(o.chunks, float64(n))
	o.seeCells(sql, last.Rows, true)
	o.records = append(o.records, record{
		sql: sql, gen: last.SampleGen, baseRows: last.BaseRows, sampleRows: last.SampleRows,
		rowsSeen: last.RowsSeen, rows: last.Rows,
	})
}

// readPhase deals ops round-robin to the workload's closed-loop clients and
// runs them to the end of the sequence.
func readPhase(c *client, t *tally, w workloadSpec, ops []string) *observations {
	parts := make([]observations, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(ops); i += w.clients {
				if w.stream {
					streamOp(c, t, &parts[k], ops[i])
				} else {
					queryOp(c, t, &parts[k], ops[i], false)
				}
			}
		}(k)
	}
	wg.Wait()
	o := &observations{wall: time.Since(start)}
	for k := range parts {
		o.merge(&parts[k])
	}
	return o
}

// pushed is one chunk a subscriber received.
type pushed struct {
	at    time.Time
	chunk server.StreamChunk
}

// pushWait is how long the appender waits for a subscriber's push before
// the op counts as failed.
const pushWait = 2 * time.Second

// subscribers holds the live workload's standing /subscribe streams. They
// are passive readers: each goroutine only forwards what arrives.
type subscribers struct {
	feeds []chan pushed
	wg    sync.WaitGroup
	errs  chan error
}

// subscribe opens one stream per statement and waits for each one's initial
// "subscribe" push, so every subscription is registered before the first
// append. The streams end when the server drains.
func subscribe(c *client, sqls []string) (*subscribers, error) {
	s := &subscribers{errs: make(chan error, len(sqls))}
	for _, sql := range sqls {
		// One append is outstanding at a time, so a feed holds at most that
		// append's push plus the drain chunk; 8 matches the server-side queue.
		feed := make(chan pushed, 8)
		s.feeds = append(s.feeds, feed)
		s.wg.Add(1)
		go func(sql string) {
			defer s.wg.Done()
			err := c.stream("/subscribe", server.SubscribeRequest{SQL: sql},
				func(ch server.StreamChunk, _ time.Duration) bool {
					feed <- pushed{at: time.Now(), chunk: ch}
					return ch.StopReason == ""
				})
			if err != nil {
				s.errs <- err
			}
		}(sql)
	}
	for i, feed := range s.feeds {
		if _, ok := await(feed, func(p pushed) bool { return p.chunk.PushReason == "subscribe" }); !ok {
			select {
			case err := <-s.errs:
				return nil, err
			default:
				return nil, fmt.Errorf("/subscribe %d: no initial push within %v", i, pushWait)
			}
		}
	}
	return s, nil
}

// await reads a feed until a push satisfies want or pushWait elapses.
func await(feed <-chan pushed, want func(pushed) bool) (pushed, bool) {
	timer := time.NewTimer(pushWait)
	defer timer.Stop()
	for {
		select {
		case p := <-feed:
			if want(p) {
				return p, true
			}
		case <-timer.C:
			return pushed{}, false
		}
	}
}

// livePhase appends every batch, each time waiting for the push it causes
// on every subscriber, with one /rebuild after the middle batch; a reader
// loops the dashboard pool beside it until the appender is done. It
// returns the rebuild's client-observed duration.
func livePhase(c *client, t *tally, in *inputs, subs *subscribers) (*observations, time.Duration) {
	var reader observations
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			queryOp(c, t, &reader, in.ops[i%len(in.ops)], true)
		}
	}()

	o := &observations{}
	var rebuild time.Duration
	start := time.Now()
	for k, body := range in.batches {
		t.attempted.Add(1)
		sent := time.Now()
		r, err := c.do(http.MethodPost, "/append", body)
		var resp server.AppendResponse
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("/append: status %d: %s", r.status, r.body)
		}
		if err == nil {
			err = json.Unmarshal(r.body, &resp)
		}
		if err != nil {
			t.fail("%v", err)
			continue
		}
		missing := 0
		for _, feed := range subs.feeds {
			p, ok := await(feed, func(p pushed) bool {
				return p.chunk.PushReason == "append" && p.chunk.BaseRows == resp.BaseRows
			})
			if !ok {
				missing++
				continue
			}
			o.firstMS = append(o.firstMS, ms(float64(p.at.Sub(sent))))
			o.seeCells("push", p.chunk.Rows, false)
		}
		if missing > 0 {
			t.fail("/append %d: %d of %d pushes missing after %v", k, missing, len(subs.feeds), pushWait)
			continue
		}
		o.opMS = append(o.opMS, ms(float64(r.total)))
		in.batches[k] = nil // sent; keep it out of the end-of-phase heap

		if k == len(in.batches)/2-1 {
			// The rebuild's pushes are drained, not timed.
			t.attempted.Add(1)
			rr, err := c.post("/rebuild", struct{}{}, nil)
			if err != nil {
				t.fail("%v", err)
				continue
			}
			rebuild = rr.total
			for i, feed := range subs.feeds {
				if _, ok := await(feed, func(p pushed) bool { return p.chunk.PushReason == "rebuild" }); !ok {
					t.fail("/rebuild: push to subscriber %d missing after %v", i, pushWait)
				}
			}
		}
	}
	o.wall = time.Since(start)
	close(stop)
	wg.Wait()
	o.merge(&reader)
	return o, rebuild
}
