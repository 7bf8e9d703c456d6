package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Config tunes the serving layer.
type Config struct {
	// MaxInFlight bounds concurrently executing /query, /query/stream,
	// /append, /train and /rebuild requests (the worker pool; admission
	// control). Default 16.
	MaxInFlight int
	// QueueWait is how long a request may wait for a worker slot before the
	// server sheds it with 503 (default 2s).
	QueueWait time.Duration
	// MaxBatchRows bounds one /append batch (default 1,000,000).
	MaxBatchRows int
	// MaxBodyBytes bounds one request body (default 64 MiB) — enforced
	// before decoding, so oversized payloads cannot balloon memory.
	MaxBodyBytes int64
	// SnapshotDir is the directory /save and /load operate in; requests
	// name files (no path separators), never paths, so clients cannot reach
	// the rest of the filesystem. Empty disables both endpoints.
	SnapshotDir string
	// Generate, when set, lets clients ask /append to synthesize n rows
	// server-side ({"generate": n}) from the workload the server was booted
	// with — how verdict-cli's \append drives a remote server.
	Generate func(n int, seed int64) (*storage.Table, error)
	// RebuildAfterRows arms the background sample rebuild: once streamed
	// appends have landed at least this many rows since the last rebuild,
	// the server re-shuffles the sample back to prefix-uniformity during
	// the next quiet period (see System.RebuildSample). 0 (the default)
	// disables auto-rebuild; POST /rebuild always works.
	RebuildAfterRows int
	// RebuildQuiet is how long the server must have been idle (no admitted
	// requests) before an armed auto-rebuild fires (default 2s).
	RebuildQuiet time.Duration
	// RebuildCheckEvery is the auto-rebuild poll interval (default 500ms).
	RebuildCheckEvery time.Duration
	// MaxSubscriptions bounds concurrently open /subscribe streams (default
	// 256). Subscriptions deliberately do NOT hold worker slots: they are
	// idle waiters, and holding a slot would permanently block the
	// auto-rebuild quiet gate, so they get their own cap.
	MaxSubscriptions int
	// Logger receives one structured log line per request (request ID,
	// session, endpoint, status, duration). Nil disables request logging.
	Logger *slog.Logger
	// Metrics is the registry GET /metrics exposes; the server registers
	// its serving-layer families on it (request latency, shed, stream lag,
	// rebuild duration, session/retention gauges, synopsis write
	// counters). Nil disables the endpoint and all serving-layer metrics —
	// instrumentation then costs one branch per request. Share the same
	// registry with core's stage timer (obs.NewQueryStages) so one scrape
	// covers every layer.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 1_000_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.RebuildQuiet <= 0 {
		c.RebuildQuiet = 2 * time.Second
	}
	if c.RebuildCheckEvery <= 0 {
		c.RebuildCheckEvery = 500 * time.Millisecond
	}
	if c.MaxSubscriptions <= 0 {
		c.MaxSubscriptions = 256
	}
	return c
}

// Server serves one shared core.System to many concurrent sessions.
type Server struct {
	sys      *core.System
	cfg      Config
	mux      *http.ServeMux
	slots    chan struct{} // worker-pool semaphore
	sessions *sessionRegistry
	start    time.Time
	log      *slog.Logger   // nil disables request logging
	metrics  *serverMetrics // nil disables serving-layer metrics

	served      atomic.Int64 // requests admitted and executed
	rejected    atomic.Int64 // requests shed by admission control
	streams     atomic.Int64 // progressive /query/stream requests admitted
	subscribers atomic.Int64 // open /subscribe streams (own cap, not worker slots)
	genSeed     atomic.Int64 // seeds server-side batch generation

	// Graceful-drain state: once draining flips, admission sheds every new
	// request with 503 while handlers (streams included) run to completion;
	// Drain waits on the handler WaitGroup up to the caller's deadline.
	draining atomic.Bool
	handlers sync.WaitGroup

	// Auto-rebuild state: appended rows since the last sample rebuild, the
	// last admitted-request instant (unix nanos; "quiet" means no admitted
	// traffic for RebuildQuiet), and the lifecycle of the poll goroutine.
	pendingRows  atomic.Int64
	lastActivity atomic.Int64
	stop         chan struct{}
	stopOnce     sync.Once

	// streamFault, when set (tests only), injects an execution error into
	// the progressive stream just before increment seq is flushed — the
	// fault-injection point for the terminal-error-chunk contract.
	streamFault func(seq int) error
}

// New builds a Server around a (thread-safe) System. When
// Config.RebuildAfterRows > 0 a background goroutine watches for quiet
// periods and rebuilds the sample (stop it with Close).
func New(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:      sys,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		slots:    make(chan struct{}, cfg.MaxInFlight),
		sessions: newSessionRegistry(),
		start:    time.Now(),
		stop:     make(chan struct{}),
	}
	s.lastActivity.Store(s.now().UnixNano())
	s.log = cfg.Logger
	if cfg.Metrics != nil {
		s.metrics = newServerMetrics(cfg.Metrics, s)
	}
	route := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("/query", s.admitted(s.handleQuery))
	route("/query/stream", s.admitStreaming(s.handleQueryStream))
	// /subscribe manages its own admission (MaxSubscriptions): a standing
	// subscription is an idle waiter, and parking it on a worker slot would
	// hold the auto-rebuild quiet gate (len(slots) == 0) open forever.
	route("/subscribe", s.handleSubscribe)
	route("/append", s.admitted(s.handleAppend))
	route("/train", s.admitted(s.handleTrain))
	route("/rebuild", s.admitted(s.handleRebuild))
	route("/stats", s.handleStats)
	route("/save", s.handleSave)
	route("/load", s.handleLoad)
	route("/metrics", s.handleMetrics)
	// Catch-all so unknown paths get the structured envelope too. The
	// metrics label is the fixed pattern, not the URL, so arbitrary paths
	// cannot grow the label set.
	s.mux.HandleFunc("/", s.instrument("other", s.handleNotFound))
	if cfg.RebuildAfterRows > 0 {
		go s.autoRebuildLoop()
	}
	return s
}

// Handler returns the HTTP handler (mountable under httptest or net/http).
func (s *Server) Handler() http.Handler { return s.mux }

// now reads the system clock (core.Config.Now; time.Now unless a test
// injected a fake). Every policy decision that gates on elapsed time — the
// auto-rebuild quiet period, idle computation — goes through it, so a fake
// clock drives them with zero sleeps. Metrics and logs keep wall time.
func (s *Server) now() time.Time { return s.sys.Now() }

// Close stops the background auto-rebuild goroutine (idempotent). It does
// not drain in-flight requests — callers own the http.Server lifecycle.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// autoRebuildLoop fires System.RebuildSample once RebuildAfterRows
// appended rows have accumulated and the server has been quiet for
// RebuildQuiet — the "re-shuffle during quiet periods" policy. The rebuild
// itself serializes with appends, so a request arriving mid-rebuild simply
// queues behind it; quietness only gates *starting* one.
func (s *Server) autoRebuildLoop() {
	ticker := time.NewTicker(s.cfg.RebuildCheckEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.maybeAutoRebuild()
	}
}

// maybeAutoRebuild is one auto-rebuild poll: it fires System.RebuildSample
// when the pending-rows threshold is armed and the quiet gate passes, and
// reports whether a rebuild ran. The ticker loop calls it on wall time;
// fake-clock tests call it directly after advancing the injected clock.
func (s *Server) maybeAutoRebuild() bool {
	if s.cfg.RebuildAfterRows <= 0 {
		return false
	}
	if s.pendingRows.Load() < int64(s.cfg.RebuildAfterRows) {
		return false
	}
	// Quiet = nothing admitted recently AND nothing still executing: a
	// long-running query holds its worker slot, and lastActivity only
	// moves at admission/completion, so both checks are needed. Open
	// subscriptions do not count — they are idle waiters, not load.
	if len(s.slots) > 0 {
		return false
	}
	idle := time.Duration(s.now().UnixNano() - s.lastActivity.Load())
	if idle < s.cfg.RebuildQuiet {
		return false
	}
	s.pendingRows.Store(0)
	t0 := time.Now()
	s.sys.RebuildSample()
	s.observeRebuild(t0)
	return true
}

// admitted wraps a handler with the bounded worker pool: a request either
// gets a slot within QueueWait or is shed with 503 so overload degrades
// into fast rejections instead of unbounded queueing. A draining server
// sheds immediately (see BeginDrain). The slot is held until the handler
// returns (response body fully written) — for these handlers a client
// disconnect does not interrupt the work, so early release would let a
// connect-and-abandon loop stack unbounded concurrent scans/trainings.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return s.admit(h, false)
}

// admitStreaming is admission for context-honoring handlers (the
// progressive stream): the worker slot — which is both the admission bound
// and what the auto-rebuild quiet gate watches — is additionally released
// the moment the request context is cancelled. A client that disconnects
// mid-stream therefore frees its slot as soon as the cancellation
// propagates (the handler itself stops at the next increment boundary),
// instead of pinning admission capacity and the rebuild gate while its
// handler unwinds.
func (s *Server) admitStreaming(h http.HandlerFunc) http.HandlerFunc {
	return s.admit(h, true)
}

func (s *Server) admit(h http.HandlerFunc, releaseOnCancel bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.shed(w, r, codeDraining, fmt.Errorf("server draining: not admitting new requests"))
			return
		}
		timer := time.NewTimer(s.cfg.QueueWait)
		defer timer.Stop()
		select {
		case s.slots <- struct{}{}:
		case <-timer.C:
			s.shed(w, r, codeSaturated, fmt.Errorf("server saturated: %d requests in flight", s.cfg.MaxInFlight))
			return
		case <-r.Context().Done():
			s.shed(w, r, codeCanceled, r.Context().Err())
			return
		}
		s.handlers.Add(1)
		if s.draining.Load() {
			// BeginDrain raced our admission while we waited for a slot:
			// give everything back and shed, so Drain's wait can never
			// "complete" while a queued request is about to execute.
			s.handlers.Done()
			<-s.slots
			s.shed(w, r, codeDraining, fmt.Errorf("server draining: not admitting new requests"))
			return
		}
		s.served.Add(1)
		// Mark activity at admission and at slot release, so a long-running
		// request keeps the server "busy" until it finishes (or, for a
		// stream, until its client leaves).
		s.lastActivity.Store(s.now().UnixNano())
		var once sync.Once
		free := func() {
			once.Do(func() {
				<-s.slots
				s.lastActivity.Store(s.now().UnixNano())
			})
		}
		defer func() {
			free()
			s.handlers.Done()
		}()
		if releaseOnCancel {
			stop := context.AfterFunc(r.Context(), free)
			defer stop()
		}
		h(w, r)
	}
}

// shed rejects one request with the admission-control 503, bumping the
// rejection counter and the shed metric.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, code string, err error) {
	s.rejected.Add(1)
	if s.metrics != nil {
		s.metrics.shed.Inc()
	}
	writeErrCode(w, r, http.StatusServiceUnavailable, code, err)
}

// handleNotFound is the catch-all: unknown paths get the envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeErr(w, r, http.StatusNotFound, fmt.Errorf("no such endpoint %q", r.URL.Path))
}

// BeginDrain flips the server into drain mode: every subsequent request on
// an admitted endpoint is shed with 503 while in-flight ones — streams
// included — run to completion, and standing subscriptions are closed with
// terminal reason "drain" (queued pushes deliver first, then each
// subscriber gets a final stop_reason chunk). Idempotent; /stats keeps
// answering so operators can watch the drain.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.sys.CloseSubscriptions("drain")
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins draining and blocks until every admitted handler has
// returned or ctx expires (the -drain-timeout deadline). On timeout the
// remaining in-flight count is reported; the caller decides whether to cut
// connections anyway (http.Server.Close) or keep waiting.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %d requests still in flight: %w", s.InFlight(), ctx.Err())
	}
}

// InFlight is the number of admitted requests currently holding worker
// slots. A disconnected streaming client's slot is released immediately,
// so streams count as live demand — not handlers mid-unwind.
func (s *Server) InFlight() int { return len(s.slots) }

// ---- /query ----

type QueryRequest struct {
	SQL     string `json:"sql"`
	Session string `json:"session,omitempty"`
	Exact   bool   `json:"exact,omitempty"`
	// BudgetMS caps the simulated AQP time (§7 deployment scenario 2);
	// 0 runs the sample to completion. Ignored when Exact is set.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

type Group struct {
	Column string  `json:"column"`
	Str    string  `json:"str,omitempty"`
	Num    float64 `json:"num,omitempty"`
}

type Cell struct {
	Agg       string  `json:"agg"`
	Value     float64 `json:"value"`
	StdErr    float64 `json:"stderr"`
	ErrBound  float64 `json:"err_bound"` // 95% half-width
	RawValue  float64 `json:"raw_value"`
	RawStdErr float64 `json:"raw_stderr"`
	UsedModel bool    `json:"used_model"`
	Exact     float64 `json:"exact,omitempty"`
}

type Row struct {
	Group []Group `json:"group,omitempty"`
	Cells []Cell  `json:"cells"`
}

type QueryResponse struct {
	Session    string   `json:"session"`
	Supported  bool     `json:"supported"`
	Reasons    []string `json:"reasons,omitempty"`
	Rows       []Row    `json:"rows,omitempty"`
	Epoch      uint64   `json:"epoch"`
	SampleGen  uint64   `json:"sample_gen"`
	BaseRows   int      `json:"base_rows"`
	SampleRows int      `json:"sample_rows"`
	SimTimeMS  float64  `json:"sim_time_ms"`
	OverheadUS float64  `json:"overhead_us"`
	// GroupsTruncated reports that the answer set exceeded the configured
	// Nmax group cap and rows carries only the first Nmax groups.
	GroupsTruncated bool `json:"groups_truncated,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("missing sql"))
		return
	}
	sess := s.sessions.get(req.Session, s.now())
	sess.touch(s.now())
	sess.queries.Add(1)
	noteSession(r, sess.ID)

	var (
		res *core.Result
		err error
	)
	switch {
	case req.Exact:
		res, err = s.sys.ExecuteWithExact(req.SQL)
	case req.BudgetMS > 0:
		res, err = s.sys.ExecuteTimeBound(req.SQL, time.Duration(req.BudgetMS)*time.Millisecond)
	default:
		res, err = s.sys.Execute(req.SQL)
	}
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	resp := QueryResponse{
		Session:    sess.ID,
		Supported:  res.Supported,
		Reasons:    res.Reasons,
		Epoch:      res.Epoch,
		SampleGen:  res.SampleGen,
		BaseRows:   res.BaseRows,
		SampleRows: res.SampleRows,
		SimTimeMS:  float64(res.SimTime) / float64(time.Millisecond),
		OverheadUS: float64(res.Overhead) / float64(time.Microsecond),

		GroupsTruncated: res.GroupsTruncated,
	}
	resp.Rows = s.jsonRows(res)
	writeJSON(w, http.StatusOK, resp)
}

// jsonRows converts a Result's group rows into their wire form (shared by
// /query and each /query/stream chunk).
func (s *Server) jsonRows(res *core.Result) []Row {
	alpha, _ := mathx.ConfidenceMultiplier(0.95)
	schema := s.sys.Engine().Base().Schema()
	var rows []Row
	for _, row := range res.Rows {
		rj := Row{}
		for _, g := range row.Group {
			gj := Group{Column: schema.Col(g.Col).Name}
			if g.Str != "" {
				gj.Str = g.Str
			} else {
				gj.Num = g.Num
			}
			rj.Group = append(rj.Group, gj)
		}
		for _, c := range row.Cells {
			rj.Cells = append(rj.Cells, Cell{
				Agg:       c.Agg.String(),
				Value:     c.Improved.Value,
				StdErr:    c.Improved.StdErr,
				ErrBound:  alpha * c.Improved.StdErr,
				RawValue:  c.Raw.Value,
				RawStdErr: c.Raw.StdErr,
				UsedModel: c.UsedModel,
				Exact:     c.Exact,
			})
		}
		rows = append(rows, rj)
	}
	return rows
}

// ---- /append ----

// AppendRequest is the /append body as clients encode it. The server does
// not decode into it: decodeAppendBody reads the same wire format in one
// pass, straight into the batch table.
type AppendRequest struct {
	Session string `json:"session,omitempty"`
	// Rows are positional cell values in schema order: JSON numbers for
	// numeric columns, strings for categorical ones.
	Rows [][]any `json:"rows,omitempty"`
	// Generate asks the server to synthesize this many rows from its
	// configured workload generator instead (requires Config.Generate).
	Generate int   `json:"generate,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

type AppendResponse struct {
	Session    string `json:"session"`
	Appended   int    `json:"appended"`
	Sampled    int    `json:"sampled"`
	BaseRows   int    `json:"base_rows"`
	SampleRows int    `json:"sample_rows"`
	Epoch      uint64 `json:"epoch"`
}

// handleAppend decodes the body in one pass (decodeAppendBody), so a batch
// over MaxBatchRows or MaxBodyBytes is refused before anything lands.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	data, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	base := s.sys.Engine().Base()
	req, err := decodeAppendBody(data, base.Schema(), base.Name()+"_batch", s.cfg.MaxBatchRows)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess := s.sessions.get(req.Session, s.now())
	sess.touch(s.now())
	noteSession(r, sess.ID)

	batch := req.Batch
	switch {
	case req.Generate > 0 && batch != nil:
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("pass rows or generate, not both"))
		return
	case req.Generate > 0:
		if s.cfg.Generate == nil {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server has no batch generator configured"))
			return
		}
		if req.Generate > s.cfg.MaxBatchRows {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("generate %d exceeds batch cap %d", req.Generate, s.cfg.MaxBatchRows))
			return
		}
		seed := req.Seed
		if seed == 0 {
			seed = 7_000_000 + s.genSeed.Add(1)
		}
		batch, err = s.cfg.Generate(req.Generate, seed)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, err)
			return
		}
	case batch != nil:
	default:
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("missing rows or generate"))
		return
	}

	appended := batch.Rows()
	sampled, err := s.sys.Append(batch)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess.appends.Add(1)
	s.pendingRows.Add(int64(appended))
	view := s.sys.Engine().Acquire()
	writeJSON(w, http.StatusOK, AppendResponse{
		Session:    sess.ID,
		Appended:   appended,
		Sampled:    sampled,
		BaseRows:   view.BaseRows,
		SampleRows: view.SampleRows,
		Epoch:      view.Epoch,
	})
}

// ---- /rebuild ----

// RebuildRequest optionally overrides the sample layout for this rebuild.
// All fields are column *names*, resolved against the base schema here;
// empty/zero fields fall back to the engine's standing layout (the boot
// flags). Invalid layouts — unknown or categorical columns — are rejected
// with a structured 400 (code "invalid_column") before any state moves.
type RebuildRequest struct {
	// ClusterColumn sorts the flat (unpartitioned) sample by this numeric
	// column for zone-map pruning; only meaningful when Partitions is 0.
	ClusterColumn string `json:"cluster_column,omitempty"`
	// Partitions rebuilds into this many stratified partitions (>= 1);
	// 0 keeps the engine's standing layout.
	Partitions int `json:"partitions,omitempty"`
	// StratumColumn is the numeric column the stratified layout
	// range-partitions on; empty with Partitions > 0 selects round-robin.
	StratumColumn string `json:"stratum_column,omitempty"`
}

type RebuildResponse struct {
	// Generation is the new sample generation (one rebuild = one epoch).
	Generation uint64 `json:"generation"`
	SampleRows int    `json:"sample_rows"`
	Epoch      uint64 `json:"epoch"`
	// Partitions is the partition count of the new layout (0 = flat).
	Partitions int `json:"partitions,omitempty"`
}

// resolveLayout turns a RebuildRequest's column names into engine options,
// starting from the engine's standing layout so an empty body reproduces
// the default rebuild exactly.
func (s *Server) resolveLayout(req RebuildRequest) (aqp.RebuildOptions, error) {
	opts := s.sys.Engine().Layout()
	schema := s.sys.Engine().Base().Schema()
	lookup := func(field, name string) (int, error) {
		col, ok := schema.Lookup(name)
		if !ok {
			return -1, fmt.Errorf("%s: unknown column %q", field, name)
		}
		return col, nil
	}
	var err error
	if req.ClusterColumn != "" {
		if opts.ClusterColumn, err = lookup("cluster_column", req.ClusterColumn); err != nil {
			return opts, err
		}
	}
	if req.Partitions != 0 {
		opts.Partitions = req.Partitions
	}
	if req.StratumColumn != "" {
		if opts.StratumColumn, err = lookup("stratum_column", req.StratumColumn); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// handleRebuild forces a sample rebuild now (see System.RebuildSampleOpts),
// regardless of the auto-rebuild thresholds — the operator's lever for a
// planned quiet window. Queries in flight keep their pinned generation. An
// optional JSON body overrides the layout for this rebuild (and the new
// layout sticks as the engine default for subsequent auto-rebuilds).
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var req RebuildRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	opts, err := s.resolveLayout(req)
	if err != nil {
		writeErrCode(w, r, http.StatusBadRequest, codeInvalidColumn, err)
		return
	}
	s.pendingRows.Store(0)
	t0 := time.Now()
	gen, rows, err := s.sys.RebuildSampleOpts(opts)
	if err != nil {
		// aqp.ErrBadLayout: the named column exists but cannot serve as a
		// layout key (categorical, out of range). Nothing moved.
		writeErrCode(w, r, http.StatusBadRequest, codeInvalidColumn, err)
		return
	}
	s.observeRebuild(t0)
	parts := 0
	if stats := s.sys.Engine().PartitionStats(); stats != nil {
		parts = len(stats)
	}
	writeJSON(w, http.StatusOK, RebuildResponse{
		Generation: gen,
		SampleRows: rows,
		Epoch:      s.sys.Engine().Acquire().Epoch,
		Partitions: parts,
	})
}

// ---- /train ----

type TrainResponse struct {
	Snippets  int `json:"snippets"`
	Functions int `json:"functions"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	// Training is expensive (O(n³) per model) and state-changing: never let
	// an idempotent-looking GET trigger it.
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	// System.Train (not Verdict().Train) so standing subscriptions are
	// notified of the republished model states.
	if err := s.sys.Train(); err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, TrainResponse{
		Snippets:  s.sys.Verdict().SnippetCount(),
		Functions: len(s.sys.Verdict().FuncIDs()),
	})
}

// ---- /stats ----

type StatsResponse struct {
	Table struct {
		Name       string   `json:"name"`
		Columns    []string `json:"columns"`
		BaseRows   int      `json:"base_rows"`
		SampleRows int      `json:"sample_rows"`
		Epoch      uint64   `json:"epoch"`
	} `json:"table"`
	System core.SystemStats `json:"system"`
	// Synopsis carries the synopsis totals and write counters (see
	// core.Verdict.Stats).
	Synopsis core.SynopsisStat `json:"synopsis"`
	Sample   struct {
		// Generation counts completed sample rebuilds (epoch swaps).
		Generation uint64 `json:"generation"`
		Rebuilds   int    `json:"rebuilds"`
		// PendingRows is appended rows since the last rebuild; AutoAfterRows
		// is the arming threshold (0 = auto-rebuild disabled).
		PendingRows   int64 `json:"pending_rows"`
		AutoAfterRows int   `json:"auto_after_rows"`
		// ReplayHorizon is the oldest sample generation still replayable
		// (and resumable); RetainedGens counts retired generations held,
		// bounded by MaxRetainedGens (0 = unbounded). Resume or replay
		// requests behind the horizon receive a structured 410.
		ReplayHorizon   uint64 `json:"replay_horizon"`
		RetainedGens    int    `json:"retained_gens"`
		MaxRetainedGens int    `json:"max_retained_gens"`
		// NumPartitions is the partition count of the stratified sample
		// layout (0 = flat sample, Partitions absent); StratumColumn names
		// the column the layout range-partitions on ("" = round-robin).
		NumPartitions int             `json:"num_partitions,omitempty"`
		StratumColumn string          `json:"stratum_column,omitempty"`
		Partitions    []PartitionInfo `json:"partitions,omitempty"`
	} `json:"sample"`
	Server struct {
		Sessions    int `json:"sessions"`
		MaxInFlight int `json:"max_in_flight"`
		// InFlight counts admitted requests currently holding worker slots;
		// a slot is released when its response body is fully written or its
		// client disconnects, whichever comes first.
		InFlight int   `json:"in_flight"`
		Served   int64 `json:"served"`
		Rejected int64 `json:"rejected"`
		// Streams counts admitted progressive /query/stream requests.
		Streams int64 `json:"streams"`
		// Subscriptions is the number of standing /subscribe streams
		// currently open; MaxSubscriptions is their admission cap.
		Subscriptions    int `json:"subscriptions"`
		MaxSubscriptions int `json:"max_subscriptions"`
		// Draining is true once graceful shutdown has begun: in-flight
		// work finishes, new requests shed with 503.
		Draining bool  `json:"draining"`
		UptimeMS int64 `json:"uptime_ms"`
	} `json:"server"`
	// Metrics digests the serving-layer metrics (request quantiles, shed
	// count, uptime); absent when the server runs without a registry.
	Metrics  *MetricsSummary `json:"metrics_summary,omitempty"`
	Sessions []SessionInfo   `json:"sessions,omitempty"`
}

// PartitionInfo is one serving partition's digest in /stats (see
// aqp.Engine.PartitionStats).
type PartitionInfo struct {
	Partition int `json:"partition"`
	Strata    int `json:"strata"`
	Rows      int `json:"rows"`
	// Generation is the sample generation the partition's strata were built
	// under; all partitions of one layout report the same value.
	Generation uint64 `json:"generation"`
	// ZoneSelectivity is the mean stratum-column zone-map width relative to
	// the column domain over the partition's blocks — near 0 means selective
	// predicates on the stratum column prune almost every block.
	ZoneSelectivity float64 `json:"zone_selectivity"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	view := s.sys.Engine().Acquire()
	resp.Table.Name = view.Base.Name()
	resp.Table.Columns = view.Base.Schema().Names()
	resp.Table.BaseRows = view.BaseRows
	resp.Table.SampleRows = view.SampleRows
	resp.Table.Epoch = view.Epoch
	sysStats := s.sys.StatsSnapshot()
	resp.System = sysStats
	resp.Synopsis = s.sys.Verdict().Stats()
	resp.Sample.Generation = view.SampleGen
	resp.Sample.Rebuilds = sysStats.Rebuilds
	resp.Sample.PendingRows = s.pendingRows.Load()
	resp.Sample.AutoAfterRows = s.cfg.RebuildAfterRows
	resp.Sample.ReplayHorizon, resp.Sample.RetainedGens, resp.Sample.MaxRetainedGens =
		s.sys.Engine().RetentionStats()
	if stats := s.sys.Engine().PartitionStats(); stats != nil {
		resp.Sample.NumPartitions = len(stats)
		schema := s.sys.Engine().Base().Schema()
		if col := s.sys.Engine().Layout().StratumColumn; col >= 0 && col < schema.Len() {
			resp.Sample.StratumColumn = schema.Col(col).Name
		}
		for _, st := range stats {
			resp.Sample.Partitions = append(resp.Sample.Partitions, PartitionInfo{
				Partition:       st.Partition,
				Strata:          st.Strata,
				Rows:            st.Rows,
				Generation:      st.Gen,
				ZoneSelectivity: st.ZoneSelectivity,
			})
		}
	}
	resp.Server.Sessions = s.sessions.len()
	resp.Server.MaxInFlight = s.cfg.MaxInFlight
	resp.Server.InFlight = s.InFlight()
	resp.Server.Served = s.served.Load()
	resp.Server.Rejected = s.rejected.Load()
	resp.Server.Streams = s.streams.Load()
	resp.Server.Subscriptions = s.sys.ActiveSubscriptions()
	resp.Server.MaxSubscriptions = s.cfg.MaxSubscriptions
	resp.Server.Draining = s.Draining()
	resp.Server.UptimeMS = time.Since(s.start).Milliseconds()
	resp.Metrics = s.metricsSummary()
	resp.Sessions = s.sessions.snapshot()
	writeJSON(w, http.StatusOK, resp)
}

// ---- /save, /load ----

type PathRequest struct {
	// Path is a snapshot file name inside the server's configured snapshot
	// directory — a bare name, not a filesystem path.
	Path string `json:"path"`
}

type SnapshotResponse struct {
	Path     string `json:"path"`
	Snippets int    `json:"snippets"`
}

// snapshotFile validates the client-supplied name and resolves it inside
// SnapshotDir. Clients never name paths: anything with a separator or
// traversal component is rejected, so the endpoints cannot touch the rest
// of the filesystem.
func (s *Server) snapshotFile(name string) (string, error) {
	if s.cfg.SnapshotDir == "" {
		return "", fmt.Errorf("snapshot persistence disabled: start the server with a snapshot directory")
	}
	if name == "" {
		return "", fmt.Errorf("missing path")
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return "", fmt.Errorf("snapshot name %q must be a bare file name", name)
	}
	return filepath.Join(s.cfg.SnapshotDir, name), nil
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	path, err := s.snapshotFile(req.Path)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	// Write-then-rename: concurrent saves to the same name race only on the
	// atomic rename, never interleave bytes in the target file.
	tmp, err := os.CreateTemp(s.cfg.SnapshotDir, "."+req.Path+".tmp-*")
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	defer os.Remove(tmp.Name())
	err = s.sys.SaveSynopsis(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Path: req.Path, Snippets: s.sys.Verdict().SnippetCount()})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	path, err := s.snapshotFile(req.Path)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	defer f.Close()
	if err := s.sys.LoadSynopsis(f); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Path: req.Path, Snippets: s.sys.Verdict().SnippetCount()})
}

// ---- plumbing ----

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	// Cap the body before decoding: MaxBatchRows alone cannot bound memory
	// once a multi-GB payload has already been parsed.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error codes of the structured error envelope: a stable machine-readable
// classification alongside the human-readable message. The streaming 410
// contract (code "behind_replay_horizon") predates the envelope and keeps
// its shape (GoneResponse).
const (
	codeBadRequest       = "bad_request"
	codeMethodNotAllowed = "method_not_allowed"
	codeNotFound         = "not_found"
	codeSaturated        = "saturated"
	codeDraining         = "draining"
	codeCanceled         = "canceled"
	codeInternal         = "internal"
	// codeInvalidColumn marks /rebuild layout rejections: an unknown column
	// name, or a column that exists but cannot key a sample layout
	// (aqp.ErrBadLayout — categorical or out of range).
	codeInvalidColumn = "invalid_column"
)

// errJSON is the error envelope every non-410 error response carries:
// {code, error, request_id}. The "error" key predates the envelope and is
// what existing clients parse, so it stays. Detail carries a multi-line
// rendering when one exists — for SQL syntax errors, the source line with
// a caret under the offending position (sqlparse.ParseError.Verbose).
type errJSON struct {
	Code      string `json:"code"`
	Error     string `json:"error"`
	Detail    string `json:"detail,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusMethodNotAllowed:
		return codeMethodNotAllowed
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusServiceUnavailable:
		return codeSaturated
	default:
		return codeInternal
	}
}

// writeErr responds with the error envelope, deriving the code from the
// status; paths that need a more specific code (draining vs. saturated)
// use writeErrCode directly.
func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeErrCode(w, r, status, codeForStatus(status), err)
}

func writeErrCode(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	env := errJSON{Code: code, Error: err.Error(), RequestID: requestID(r)}
	var pe *sqlparse.ParseError
	if errors.As(err, &pe) {
		if v := pe.Verbose(); v != env.Error {
			env.Detail = v
		}
	}
	writeJSON(w, status, env)
}
