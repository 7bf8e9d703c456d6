package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Spans are recorded purely from this directory, around the calls into the
// program: client.request around each HTTP call, server.handler from a
// wrapper mounted around the server's handler, and stage.parse|prune|scan|
// infer from a StageTimer that fans out to the program's own histogram and
// to the span buffer. Spans stay in memory and are written as NDJSON when
// the run ends. Tracing inside internal/ is a later issue.

// Span names.
const (
	spanClient  = "client.request"
	spanHandler = "server.handler"
	spanStage   = "stage." // + obs stage name
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Req is shared by every span of one request.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Req      uint64 `json:"req"`
	Name     string `json:"name"`
	Endpoint string `json:"endpoint,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Mode and Grouped label stage spans (obs.Stage); Status and Bytes
	// label client spans; Phase is "setup", "timed" or "audit".
	Mode    string `json:"mode,omitempty"`
	Grouped bool   `json:"grouped,omitempty"`
	Status  int    `json:"status,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Phase   string `json:"phase"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

const parentHeader = "X-Bench-Span"

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	phase  atomic.Value // string

	mu    sync.Mutex
	spans []span

	// current is the in-flight query handler. The StageTimer hook carries no
	// request identity, so stage spans attach to it; that is unambiguous
	// because a traced run keeps at most one /query or /query/stream request
	// in flight (appends and subscriptions report no stages).
	current atomic.Pointer[span]
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.phase.Store("setup")
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	s.Phase = t.phase.Load().(string)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// startClient opens a client.request span and stamps the request so the
// handler wrapper can name it as parent.
func (t *tracer) startClient(req *http.Request, endpoint string) span {
	id := t.nextID.Add(1)
	req.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	return span{ID: id, Req: id, Name: spanClient, Endpoint: endpoint, Start: t.now()}
}

func (t *tracer) endClient(s span, status, bytes int) {
	s.End, s.Status, s.Bytes = t.now(), status, bytes
	t.add(s)
}

// wrap mounts the server.handler span around the program's handler.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		s := span{ID: t.nextID.Add(1), Parent: parent, Req: parent, Name: spanHandler, Endpoint: r.URL.Path, Start: t.now()}
		staged := r.URL.Path == "/query" || r.URL.Path == "/query/stream"
		if staged {
			t.current.Store(&s)
		}
		next.ServeHTTP(w, r)
		if staged {
			t.current.Store(nil)
		}
		s.End = t.now()
		t.add(s)
	})
}

// stageTimer is the benchmark-owned obs.StageTimer: the public hook the
// program already offers, so no program change is needed.
type stageTimer struct {
	real obs.StageTimer
	t    *tracer
}

func (st stageTimer) ObserveStage(stage obs.Stage, d time.Duration) {
	st.real.ObserveStage(stage, d)
	h := st.t.current.Load()
	if h == nil {
		return
	}
	end := st.t.now()
	st.t.add(span{
		ID: st.t.nextID.Add(1), Parent: h.ID, Req: h.Req, Name: spanStage + stage.Name,
		Endpoint: h.Endpoint, Start: end - int64(d), End: end, Mode: stage.Mode, Grouped: stage.Grouped,
	})
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// request is one traced request reassembled from its spans.
type request struct {
	client  span
	handler span
	stages  []span
}

// self is the handler's time not covered by its stage children. Stages of
// one request run one after another on the handler's goroutine, so their
// durations add.
func (r request) self() float64 {
	covered := 0.0
	for _, s := range r.stages {
		covered += s.dur()
	}
	return r.handler.dur() - covered
}

func (r request) stageSum(name string) float64 {
	total := 0.0
	for _, s := range r.stages {
		if s.Name == spanStage+name {
			total += s.dur()
		}
	}
	return total
}

// requests groups the timed-phase spans of one endpoint by request.
func requests(spans []span, endpoint string) []request {
	byReq := map[uint64]*request{}
	var order []uint64
	for _, s := range spans {
		if s.Phase != "timed" || s.Endpoint != endpoint {
			continue
		}
		r := byReq[s.Req]
		if r == nil {
			r = &request{}
			byReq[s.Req] = r
			order = append(order, s.Req)
		}
		switch s.Name {
		case spanClient:
			r.client = s
		case spanHandler:
			r.handler = s
		default:
			r.stages = append(r.stages, s)
		}
	}
	out := make([]request, 0, len(order))
	for _, id := range order {
		if r := byReq[id]; r.client.ID != 0 && r.handler.ID != 0 {
			out = append(out, *r)
		}
	}
	return out
}
