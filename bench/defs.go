package main

// metricDef names one reported metric. BENCHMARK.json carries Name, Unit,
// Better (and Bound for end-to-end metrics) and admits no further keys;
// README.md says which end-to-end metric each per-layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the base median
	Source string  // per-layer only: S span, C program counter, D direct call
}

// endToEnd is what a caller of the server sees. Every metric is defined on
// every workload through the workload's role for it:
//
//	op     the primary operation, send → complete reply: /query (explore,
//	       dashboard), /query/stream to its terminal chunk (stream),
//	       /append (live)
//	first  send → first result: response headers (explore, dashboard),
//	       first chunk (stream), the append's push arriving at a
//	       subscriber (live)
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "first_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "ci_ratio_mean", Unit: "ratio", Better: "lower", Bound: 0.20},
	{Name: "covered_share", Unit: "share", Better: "higher", Bound: 0.12},
}

// perLayer lists the traced run's metrics, layer = module name.
var perLayer = []metricDef{
	{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "server.self_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "server.self_share", Unit: "share", Better: "lower", Source: "S"},
	{Name: "server.transport_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "server.resp_bytes_p50", Unit: "bytes", Better: "lower", Source: "S"},
	{Name: "server.query_span_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "server.append_handler_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "server.shed_total", Unit: "count", Better: "lower", Source: "C"},
	{Name: "server.chunk_gap_mean_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "core.parse_p50_us", Unit: "us", Better: "lower", Source: "S"},
	{Name: "core.plan_p50_us", Unit: "us", Better: "lower", Source: "S"},
	{Name: "core.infer_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "core.infer_share", Unit: "share", Better: "lower", Source: "S"},
	{Name: "core.infer_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "core.record_call_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "core.snippets_per_query", Unit: "count", Better: "lower", Source: "C"},
	{Name: "core.synopsis_snippets", Unit: "count", Better: "lower", Source: "C"},
	{Name: "core.model_used_share", Unit: "share", Better: "higher", Source: "C"},
	{Name: "core.first_chunk_on_target_share", Unit: "share", Better: "higher", Source: "S"},
	{Name: "core.notify_mean_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "core.notify_scans_per_batch", Unit: "count", Better: "lower", Source: "C"},
	{Name: "core.train_s", Unit: "s", Better: "lower", Source: "S"},
	{Name: "aqp.scan_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "aqp.scan_grouped_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "aqp.scan_share", Unit: "share", Better: "lower", Source: "S"},
	{Name: "aqp.step_p50_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "aqp.increments_per_stream", Unit: "count", Better: "lower", Source: "S"},
	{Name: "aqp.scan_call_mrows_per_s", Unit: "Mrows/s", Better: "higher", Source: "D"},
	{Name: "aqp.grouped_call_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "aqp.append_call_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "aqp.rebuild_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "sqlparse.parse_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "query.plan_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "kernel.covariance_call_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "linalg.cholesky_call_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "linalg.solve_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "linalg.extend_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "storage.append_call_mrows_per_s", Unit: "Mrows/s", Better: "higher", Source: "D"},
	{Name: "storage.snapshot_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "notify.broadcast_call_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "notify.coalesced_total", Unit: "count", Better: "lower", Source: "C"},
	{Name: "obs.observe_call_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Source: "S"},
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// manifest is BENCHMARK.json's content, built from the definitions above so
// the file the driver reads cannot drift from what the benchmark reports.
// The contract fixes its keys; everything else it could say is in README.md.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the timed-phase length the driver asks for.
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
