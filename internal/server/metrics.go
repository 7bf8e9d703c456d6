package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/obs"
)

// Serving-layer metrics. The registry is shared with the binary (which
// also wires the query-stage histogram into core via obs.NewQueryStages on
// the same registry), and registration is get-or-create, so any number of
// layers can name the same family without conflict. Scrape-time
// collectors (GaugeFunc / CounterFunc / CounterFuncVec) read state the
// server already tracks with atomics — sessions, pending rows, retention,
// synopsis write counters — so a scrape never takes a lock a query path
// cares about.

type serverMetrics struct {
	reg *obs.Registry

	reqLatency *obs.HistogramVec // by endpoint
	requests   *obs.CounterVec   // by endpoint, status
	inFlight   *obs.Gauge        // instrumented requests currently executing
	shed       *obs.Counter      // admission-control 503s

	streamLag     *obs.Histogram // seconds between consecutive chunks of a stream
	activeStreams *obs.Gauge
	resumes       *obs.Counter // cursor resumptions attempted
	behindHorizon *obs.Counter // resume 410s (cursor generation evicted)

	rebuildDur *obs.Histogram // sample rebuild duration (manual + auto)

	notifyFanout *obs.Histogram // one notify batch's shared-scan + fan-out latency
}

func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		reqLatency: reg.HistogramVec("verdict_http_request_duration_seconds",
			"HTTP request latency by endpoint.", nil, "endpoint"),
		requests: reg.CounterVec("verdict_http_requests_total",
			"HTTP requests by endpoint and status.", "endpoint", "status"),
		inFlight: reg.Gauge("verdict_http_in_flight",
			"Instrumented HTTP requests currently executing."),
		shed: reg.Counter("verdict_http_shed_total",
			"Requests shed with 503 by admission control (saturated, draining or abandoned in queue)."),
		streamLag: reg.Histogram("verdict_stream_increment_lag_seconds",
			"Time between consecutive chunks of one progressive stream.", nil),
		activeStreams: reg.Gauge("verdict_streams_active",
			"Progressive streams currently emitting."),
		resumes: reg.Counter("verdict_stream_resumes_total",
			"Progressive stream cursor resumptions attempted."),
		behindHorizon: reg.Counter("verdict_stream_behind_horizon_total",
			"Stream resumes rejected with 410 because the cursor generation fell behind the replay horizon."),
		rebuildDur: reg.Histogram("verdict_rebuild_duration_seconds",
			"Sample rebuild duration (manual /rebuild and auto-rebuild).", nil),
		notifyFanout: reg.Histogram("verdict_notify_fanout_seconds",
			"Per notify batch: one shared incremental scan per standing plan plus threshold-gated pushes to every subscriber.", nil),
	}
	// The fan-out histogram is fed by core's notify hook: one observation
	// per append/rebuild/train batch that had standing plans to refresh.
	s.sys.SetNotifyHook(func(_ string, d time.Duration) {
		m.notifyFanout.Observe(d.Seconds())
	})

	reg.GaugeFunc("verdict_pending_rows",
		"Rows appended since the last sample rebuild.",
		func() float64 { return float64(s.pendingRows.Load()) })
	reg.GaugeFunc("verdict_retained_generations",
		"Retired sample generations held for replay.",
		func() float64 { return float64(s.sys.Engine().RetainedGens()) })
	reg.GaugeFunc("verdict_replay_horizon_age_generations",
		"Live sample generation minus the replay horizon: how far back a stream can resume.",
		func() float64 {
			eng := s.sys.Engine()
			return float64(eng.Sample().Gen - eng.ReplayHorizon())
		})
	reg.GaugeFunc("verdict_synopsis_snippets",
		"Snippets currently held in the synopsis.",
		func() float64 { return float64(s.sys.Verdict().SnippetCount()) })
	reg.GaugeFunc("verdict_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("verdict_subscriptions_active",
		"Standing /subscribe streams currently open.",
		func() float64 { return float64(s.sys.ActiveSubscriptions()) })
	reg.CounterFunc("verdict_notify_pushes_total",
		"Updates pushed to standing subscribers (threshold passed).",
		func() float64 { return float64(s.sys.StatsSnapshot().NotifyPushes) })
	reg.CounterFunc("verdict_notify_coalesced_total",
		"Pushes coalesced into a full subscriber queue (stalled consumer saw only the latest update).",
		func() float64 { return float64(s.sys.StatsSnapshot().NotifyCoalesced) })
	reg.CounterFunc("verdict_notify_scans_total",
		"Incremental shared scans run for standing plans (one per unique plan per notify batch, not one per subscriber).",
		func() float64 { return float64(s.sys.StatsSnapshot().NotifyScans) })
	reg.CounterFunc("verdict_append_drift_rows_total",
		"Pre-append sample rows the append drift estimate bucketed, summed over AVG models (only the rows sampled since the previous append, unless a rebuild, a widened domain or a restart made it start over).",
		func() float64 { return float64(s.sys.StatsSnapshot().DriftRows) })

	// Scan-memo outcomes: how the raw half of each recorded one-shot query
	// and each progressive stream was obtained. On repeated statements
	// reused (or, under appends, extended) should dominate; a climbing
	// folded means statements are unique, bounds keep moving, or the memo
	// is thrashing at its cap.
	reg.CounterFuncVec("verdict_scan_memo_total",
		"Recorded one-shot queries and progressive streams by how the scan memo served their scan: reused (same snapshot, nothing scanned), extended (only appended rows folded; one-shot only), folded (scanned from the start, or a stream with any increment not stored).",
		[]string{"outcome"},
		func() []obs.Sample {
			st := s.sys.StatsSnapshot()
			return []obs.Sample{
				{Labels: []string{aqp.FoldReused.String()}, Value: float64(st.ScanMemoReused)},
				{Labels: []string{aqp.FoldExtended.String()}, Value: float64(st.ScanMemoExtended)},
				{Labels: []string{aqp.FoldFull.String()}, Value: float64(st.ScanMemoFolded)},
			}
		})
	reg.GaugeFunc("verdict_scan_memo_entries",
		"Statements currently holding a scan-memo entry (a carried fold, stored stream increments, or both).",
		func() float64 { return float64(s.sys.StatsSnapshot().ScanMemoEntries) })

	// Per-partition sample gauges, read off the live sample's partition
	// index at scrape time; the label set follows the layout (empty for a
	// flat sample, resized by a /rebuild that changes the partition count).
	partLabels := []string{"partition"}
	reg.GaugeFuncVec("verdict_sample_partition_rows",
		"Rows per serving partition of the stratified sample layout (tail excluded).", partLabels,
		func() []obs.Sample {
			return partitionSamples(s, func(st aqp.PartitionStat) float64 { return float64(st.Rows) })
		})
	reg.GaugeFuncVec("verdict_sample_partition_zone_selectivity",
		"Mean stratum-column zone-map width relative to the column domain, per partition (near 0 = selective predicates prune almost every block).", partLabels,
		func() []obs.Sample {
			return partitionSamples(s, func(st aqp.PartitionStat) float64 { return st.ZoneSelectivity })
		})
	reg.GaugeFunc("verdict_sample_partitions",
		"Partition count of the sample layout (0 = flat unpartitioned sample).",
		func() float64 { return float64(len(s.sys.Engine().PartitionStats())) })

	// Synopsis write counters, read straight off the Verdict's atomics at
	// scrape time. Caveat: /load swaps the Verdict, restarting these from
	// zero — a scrape-side reset, like any process restart. Which kind of
	// maintenance the records caused shows in the last four: on repeated
	// queries over a synopsis that fits, refactorizations and gram_rebuilds
	// stay flat and noop_repeats tracks records; on unique queries at the
	// cap factor_edits tracks records (O(n²) each) and refactorizations
	// grows by one per builtAt edits. A refactorizations count that tracks
	// records is O(n³) work per record.
	for _, c := range []struct {
		name, help string
		pick       func(core.Counters) int64
	}{
		{"verdict_synopsis_records_total", "Snippets recorded into the synopsis.",
			func(c core.Counters) int64 { return c.Records }},
		{"verdict_synopsis_trains_total", "Model train passes run.",
			func(c core.Counters) int64 { return c.Trains }},
		{"verdict_synopsis_refactorizations_total", "From-scratch Cholesky factorizations of a model's covariance matrix (O(n^3) each; sigma2 re-estimated).",
			func(c core.Counters) int64 { return c.Refactorizations }},
		{"verdict_synopsis_factor_edits_total", "O(n^2) edits of a model's Cholesky factor: one row extended, or replaced for an evicted or improved snippet.",
			func(c core.Counters) int64 { return c.FactorEdits }},
		{"verdict_synopsis_gram_rebuilds_total", "Gram caches dropped because a length-scale, column domain or dictionary size moved (n^2/2 kernel integrals each).",
			func(c core.Counters) int64 { return c.GramRebuilds }},
		{"verdict_synopsis_noop_repeats_total", "Records of an already-held snippet whose error did not improve (recency bump only).",
			func(c core.Counters) int64 { return c.NoopRepeats }},
	} {
		pick := c.pick
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(pick(s.sys.Verdict().Counters())) })
	}
	return m
}

func partitionSamples(s *Server, pick func(aqp.PartitionStat) float64) []obs.Sample {
	stats := s.sys.Engine().PartitionStats()
	out := make([]obs.Sample, len(stats))
	for i, st := range stats {
		out[i] = obs.Sample{Labels: []string{strconv.Itoa(st.Partition)}, Value: pick(st)}
	}
	return out
}

// observeRebuild records one completed sample rebuild's duration.
func (s *Server) observeRebuild(start time.Time) {
	if s.metrics != nil {
		s.metrics.rebuildDur.Observe(time.Since(start).Seconds())
	}
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	if s.metrics == nil {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("metrics not configured: start the server with a registry"))
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = s.metrics.reg.WritePrometheus(w)
}

// MetricsSummary is the /stats digest of the serving-layer metrics — the
// headline numbers an operator wants without scraping /metrics.
type MetricsSummary struct {
	// TotalRequests counts instrumented HTTP requests completed (all
	// endpoints, all statuses).
	TotalRequests uint64 `json:"total_requests"`
	// Request latency quantiles, estimated from the histogram the same way
	// histogram_quantile does (linear interpolation within a bucket).
	RequestP50MS float64 `json:"request_p50_ms"`
	RequestP95MS float64 `json:"request_p95_ms"`
	RequestP99MS float64 `json:"request_p99_ms"`
	// Shed counts admission-control 503s.
	Shed uint64 `json:"shed"`
	// UptimeSeconds is seconds since the server started.
	UptimeSeconds float64 `json:"uptime_s"`
}

// metricsSummary builds the /stats digest; nil when no registry is wired.
func (s *Server) metricsSummary() *MetricsSummary {
	if s.metrics == nil {
		return nil
	}
	snap := s.metrics.reqLatency.MergedSnapshot()
	toMS := func(q float64) float64 { return snap.Quantile(q) * 1000 }
	return &MetricsSummary{
		TotalRequests: snap.Count,
		RequestP50MS:  toMS(0.50),
		RequestP95MS:  toMS(0.95),
		RequestP99MS:  toMS(0.99),
		Shed:          s.metrics.shed.Value(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}
