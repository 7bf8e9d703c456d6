// Command verdict-server runs the concurrent serving layer: a long-running
// concurrent SQL service over one shared Verdict pipeline. N clients
// query and stream appends against a single synopsis, so the system gets
// smarter with every query any of them issues.
//
// Usage:
//
//	verdict-server -addr :8765 -dataset customer1 -rows 100000
//	verdict-server -dataset tpch -rows 200000 -fraction 0.1 -max-inflight 32
//	verdict-server -rebuild-after-rows 50000 -rebuild-quiet 5s
//	verdict-server -log-format json -log-level debug -pprof-addr localhost:6060
//
// Endpoints (JSON over HTTP):
//
//	POST /query        {"sql": "...", "session": "alice", "exact": false, "budget_ms": 0}
//	POST /query/stream {"sql": "...", "min_rows": 4096, "pace_ms": 0, "target_ci": 0, "cursor": null}
//	                   (NDJSON: one chunk per increment; target_ci stops the stream server-side
//	                   once the raw CI is tight enough; POSTing a chunk's cursor back resumes an
//	                   interrupted stream bit-identically — 410 once evicted past -max-retained-gens)
//	POST /subscribe    {"sql": "...", "delta_ci": 0, "delta_rel": 0.01, "debounce_ms": 0}
//	                   (long-lived NDJSON: an immediate snapshot chunk, then one push per
//	                   append/rebuild/train whose estimate or CI moved past the thresholds;
//	                   each chunk replays bit-identically at its pinned sample_gen)
//	POST /append       {"rows": [[12.5, "east", 99.0], ...]} or {"generate": 5000}
//	POST /train        {}
//	POST /rebuild      {}                         (re-shuffle the sample; epoch swap; optional
//	                   {"partitions": 4, "stratum_column": "week"} re-lays-out into stratified
//	                   partitions — invalid columns get a structured 400, code "invalid_column")
//	GET  /stats                                   (incl. synopsis counters + metrics_summary digest)
//	GET  /metrics                                 (Prometheus text format: stage latencies, HTTP, streams, synopsis)
//	POST /save         {"path": "synopsis.json"}  (file name inside -snapshot-dir)
//	POST /load         {"path": "synopsis.json"}
//
// Every response carries an X-Request-ID header (honoring a client-supplied
// one) that also appears in error envelopes and the structured request log.
//
// SIGINT/SIGTERM begin a graceful drain: new requests are shed with 503
// while in-flight queries and streams finish, bounded by -drain-timeout.
//
// Drive it interactively with: verdict-cli -connect localhost:8765
// See the README operations guide for every flag and a curl quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8765", "listen address")
		dataset   = flag.String("dataset", "customer1", "customer1 | tpch | synthetic")
		rows      = flag.Int("rows", 100000, "base relation rows")
		fraction  = flag.Float64("fraction", 0.2, "offline sample fraction")
		seed      = flag.Int64("seed", 1, "random seed")
		inflight  = flag.Int("max-inflight", 16, "bounded worker pool size (admission control)")
		queueWait = flag.Duration("queue-wait", 2*time.Second, "max wait for a worker slot before 503")
		snapDir   = flag.String("snapshot-dir", "", "directory for /save and /load synopsis snapshots (empty disables them)")
		rebRows   = flag.Int("rebuild-after-rows", 0, "auto-rebuild the sample after this many appended rows land (0 disables auto-rebuild)")
		rebQuiet  = flag.Duration("rebuild-quiet", 2*time.Second, "idle period required before an armed auto-rebuild fires")
		maxSubs   = flag.Int("max-subscriptions", 0, "cap on concurrent /subscribe streams (0 = default 256); excess subscribers are shed with 503")
		drainWait = flag.Duration("drain-timeout", 15*time.Second, "on SIGINT/SIGTERM, how long to let in-flight queries and streams finish before closing")
		maxGens   = flag.Int("max-retained-gens", 0, "retired sample generations kept for replay/resume (0 keeps all; bounded servers answer behind-horizon cursors with 410)")
		parts     = flag.Int("partitions", 0, "split the sample into this many stratified partitions (0 = flat sample); answers are invariant under the count")
		stratCol  = flag.String("stratum-column", "", "numeric column the stratified layout range-partitions on (requires -partitions; empty = round-robin strata)")
		logFormat = flag.String("log-format", "text", "request log format: text | json")
		logLevel  = flag.String("log-level", "info", "request log level: debug | info | warn | error")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables; keep it off public interfaces)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	table, err := buildTable(*dataset, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sample, err := aqp.BuildSample(table, *fraction, 0, *seed+1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// One registry spans every layer: the core pipeline reports per-stage
	// latency through the StageTimer, the server adds HTTP/stream/synopsis
	// families, and GET /metrics scrapes them all.
	// Validate the partitioned-layout flags before wiring: core's config
	// application is fail-soft (library callers fall back to the flat
	// layout), but an operator's typo should fail the boot loudly.
	if *stratCol != "" && *parts <= 0 {
		fmt.Fprintln(os.Stderr, "-stratum-column requires -partitions >= 1")
		os.Exit(1)
	}
	if *parts > 0 && *stratCol != "" {
		col, ok := table.Schema().Lookup(*stratCol)
		if !ok {
			fmt.Fprintf(os.Stderr, "-stratum-column: table %s has no column %q\n", table.Name(), *stratCol)
			os.Exit(1)
		}
		if table.Schema().Col(col).Kind != storage.Numeric {
			fmt.Fprintf(os.Stderr, "-stratum-column: %q is categorical; the stratified layout needs a numeric column\n", *stratCol)
			os.Exit(1)
		}
	}

	reg := obs.NewRegistry()
	sys := core.NewSystem(aqp.NewEngine(table, sample, aqp.CachedCost), core.Config{
		MaxRetainedGens: *maxGens,
		NumPartitions:   *parts,
		StratumColumn:   *stratCol,
		Stages:          obs.NewQueryStages(reg),
	})

	srv := server.New(sys, server.Config{
		MaxInFlight:      *inflight,
		QueueWait:        *queueWait,
		SnapshotDir:      *snapDir,
		RebuildAfterRows: *rebRows,
		RebuildQuiet:     *rebQuiet,
		MaxSubscriptions: *maxSubs,
		Logger:           logger,
		Metrics:          reg,
		Generate: func(n int, genSeed int64) (*storage.Table, error) {
			return buildTable(*dataset, n, genSeed)
		},
	})
	defer srv.Close()

	logger.Info("verdict-server starting",
		slog.String("addr", *addr),
		slog.String("dataset", *dataset),
		slog.Int("rows", table.Rows()),
		slog.Float64("sample_fraction", *fraction),
		slog.Int("worker_slots", *inflight),
		slog.String("columns", strings.Join(table.Schema().Names(), ", ")),
	)
	if *rebRows > 0 {
		logger.Info("auto-rebuild armed", slog.Int("after_rows", *rebRows), slog.Duration("quiet", *rebQuiet))
	}
	if *maxGens > 0 {
		logger.Info("replay horizon bounded", slog.Int("max_retained_gens", *maxGens))
	}
	if *parts > 0 {
		logger.Info("stratified sample layout",
			slog.Int("partitions", *parts), slog.String("stratum_column", *stratCol))
	}

	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("listen failed", slog.String("err", err.Error()))
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	// Graceful drain: shed new requests with 503, let in-flight queries and
	// streams run to their final chunk (bounded by -drain-timeout), then
	// close the listener and idle connections.
	logger.Info("draining: finishing in-flight requests (signal again to force quit)",
		slog.Duration("timeout", *drainWait))
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("drain incomplete", slog.String("err", err.Error()))
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Warn("shutdown", slog.String("err", err.Error()))
		_ = httpSrv.Close()
	}
	logger.Info("verdict-server stopped")
}

// servePprof exposes net/http/pprof on its own listener, so profiling
// never shares a port (or the admission control path) with the query API.
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", slog.String("addr", addr))
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener failed", slog.String("err", err.Error()))
	}
}

func buildTable(dataset string, rows int, seed int64) (*storage.Table, error) {
	switch dataset {
	case "customer1":
		return workload.GenerateCustomer1(rows, seed)
	case "tpch":
		return workload.GenerateTPCH(rows, seed)
	case "synthetic":
		spec := workload.DefaultSyntheticSpec()
		spec.Rows = rows
		spec.Seed = seed
		syn, err := workload.GenerateSynthetic(spec)
		if err != nil {
			return nil, err
		}
		return syn.Table, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (customer1|tpch|synthetic)", dataset)
	}
}
