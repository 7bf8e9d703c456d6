package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment records where a run was measured.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository, so the commit is read
	// from .git when there is one and is "unknown" otherwise.
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if data, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				ref = strings.TrimSpace(string(data))
			}
		}
		env.Commit = ref
		break
	}
	return env
}

// result is one run of one workload: the record -out writes and -runs
// collects. The last stdout line carries its correct, attempted, failed
// and metrics.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      int                `json:"trace"`
	Digest     string             `json:"input_digest"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	Detail     map[string]float64 `json:"detail"` // ungated: p99, sample counts, secondary series
	SpanFile   string             `json:"span_file,omitempty"`
	Env        environment        `json:"environment"`
}

// leg is one booted system driven through set-up and the timed phase. An
// untraced run is one leg; a traced run is an untraced leg (for the
// tracing overhead) followed by a traced one.
type leg struct {
	w    workloadSpec
	in   *inputs
	sys  *system
	c    *client
	subs *subscribers
	t    tally

	setupS        []float64
	obs           *observations
	rebuild       time.Duration
	heapMB        float64
	before, after map[string]float64
	sb, sa        core.SystemStats
}

// setup boots a system and brings it to the workload's starting state:
// warm-up statements, POST /train, and for live the standing subscriptions.
func (l *leg) setup(table *storage.Table, seed int64, tr *tracer) error {
	runtime.GC() // the previous set-up's garbage is not this one's cost
	t0 := time.Now()
	var err error
	if l.sys, err = boot(table, seed, l.w.synopsisCap, tr); err != nil {
		return err
	}
	l.c = newClient(l.sys.url, tr)
	for _, sql := range l.in.warm {
		if _, err := l.c.post("/query", server.QueryRequest{SQL: sql}, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if l.w.train {
		if _, err := l.c.post("/train", struct{}{}, nil); err != nil {
			return err
		}
	}
	if l.w.live {
		if l.subs, err = subscribe(l.c, l.in.subs); err != nil {
			return err
		}
	}
	l.setupS = append(l.setupS, time.Since(t0).Seconds())
	return nil
}

// close tears the leg's system down through Server.Drain and waits for the
// subscriber goroutines, which end with the drain chunk.
func (l *leg) close() error {
	err := l.sys.teardown()
	if l.subs != nil {
		l.subs.wg.Wait()
		l.subs = nil
	}
	l.c.close()
	return err
}

// Set-up repeats at least minReps times and then until setupBudget of
// set-up has been measured (at most maxSetupReps times): a cheap set-up is
// noisy, so it is measured more often. setup_s is the median.
const (
	setupBudget  = 5 * time.Second
	maxSetupReps = 11
)

// runLeg generates the inputs, sets up repeatedly (keeping the last system)
// and runs the timed phase. The relation is generated once: set-up only
// reads it, and only the kept system appends to it.
func runLeg(w workloadSpec, z sizing, seed int64, traced bool, tr *tracer, minReps int) (*leg, error) {
	table, err := workload.GenerateCustomer1(z.rows, seed)
	if err != nil {
		return nil, err
	}
	l := &leg{w: w}
	if l.in, err = generate(w, z, seed, traced); err != nil {
		return nil, err
	}
	for rep := 0; rep < minReps || (minReps > 1 && rep < maxSetupReps && sum(l.setupS) < setupBudget.Seconds()); rep++ {
		if rep > 0 {
			if err := l.close(); err != nil {
				return nil, err
			}
		}
		if err := l.setup(table, seed, tr); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	if tr != nil {
		tr.phase.Store("timed")
	}
	if l.before, err = scrape(l.c); err != nil {
		return nil, err
	}
	l.sb = l.sys.sys.StatsSnapshot()
	if w.live {
		l.obs, l.rebuild = livePhase(l.c, &l.t, l.in, l.subs)
	} else {
		l.obs = readPhase(l.c, &l.t, w, l.in.ops)
	}
	if tr != nil {
		tr.phase.Store("audit")
	}
	l.sa = l.sys.sys.StatsSnapshot()
	if l.after, err = scrape(l.c); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	l.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	return l, nil
}

// run executes one workload once. Untraced, it reports every end-to-end
// metric; traced, every per-layer metric, and writes the span file.
func run(w workloadSpec, z sizing, seed int64, traced bool, spanFile string) (*result, error) {
	w = z.resolve(w)
	res := &result{
		Workload: w.name, Seed: seed, Seconds: z.seconds,
		Metrics: map[string]metric{}, Detail: map[string]float64{}, Env: readEnvironment(),
	}
	values := map[string]float64{}
	var l *leg
	var tr *tracer
	var err error
	if !traced {
		if l, err = runLeg(w, z, seed, false, nil, z.setupReps); err != nil {
			return nil, err
		}
	} else {
		res.Trace = 1
		// One query client: the stage hook carries no request identity, so
		// stage spans attach to the one query request in flight.
		w.clients = 1
		plain, err := runLeg(w, z, seed, true, nil, 1)
		if err != nil {
			return nil, err
		}
		untracedP50 := median(plain.querySeries())
		res.Attempted, res.Failed = plain.t.attempted.Load(), plain.t.failed.Load()
		res.Violations = append(res.Violations, plain.obs.violations...)
		if err := plain.close(); err != nil {
			return nil, err
		}
		tr = newTracer()
		if l, err = runLeg(w, z, seed, true, tr, 1); err != nil {
			return nil, err
		}
		values["trace.overhead_share"] = median(l.querySeries())/untracedP50 - 1
		res.Detail["untraced_query_p50_ms"] = untracedP50
		tr.mu.Lock()
		spans := append([]span(nil), tr.spans...)
		tr.mu.Unlock()
		if err := checkSpans(spans); err != nil {
			l.obs.violate("trace: %v", err)
		}
		spanMetrics(spans, w, values)
		counterMetrics(l.before, l.after, l.sb, l.sa, values)
		values["core.model_used_share"] = ratio(l.obs.modelCells, l.obs.cells)
		values["core.first_chunk_on_target_share"] = ratio(l.obs.firstOnTarget, l.obs.streams)
		values["server.query_span_p50_ms"] = median(l.querySeries())
	}
	res.Digest = fmt.Sprintf("%016x", l.in.digest)

	// Untimed correctness audit, then (traced) the direct-call pass, then
	// teardown through Server.Drain with its leak checks.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	replay(l.sys, l.obs, rng)
	floor := minCovered
	if z.smoke {
		floor = 0
	}
	covered := coverage(l.c, &l.t, l.obs, rng, floor)
	if traced {
		if err := directCalls(l.sys, w, l.in, values); err != nil {
			return nil, fmt.Errorf("direct calls: %w", err)
		}
	}
	if err := l.close(); err != nil {
		l.obs.violate("%v", err)
	}
	if tr != nil {
		if err := tr.write(spanFile); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		res.SpanFile = spanFile
	}

	o := l.obs
	res.Attempted += l.t.attempted.Load()
	res.Failed += l.t.failed.Load()
	res.Violations = append(res.Violations, o.violations...)
	if msg := l.t.firstErr.Load(); msg != nil {
		res.Violations = append(res.Violations, "first failed op: "+*msg)
	}
	res.Correct = len(res.Violations) == 0 && res.Failed == 0

	wall := o.wall.Seconds()
	if !traced {
		values["setup_s"] = median(l.setupS)
		values["op_p50_ms"] = median(o.opMS)
		values["op_p95_ms"] = quantile(o.opMS, 0.95)
		values["op_per_s"] = float64(len(o.opMS)) / wall
		values["first_p50_ms"] = median(o.firstMS)
		values["live_heap_mb"] = l.heapMB
		values["ci_ratio_mean"] = mean(o.ratios)
		values["covered_share"] = covered
	}
	for _, def := range metricDefs(traced) {
		v, ok := values[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metric{Value: v, Unit: def.Unit}
	}

	d := res.Detail
	d["timed_wall_s"] = wall
	d["op_samples"] = float64(len(o.opMS))
	d["op_p99_ms"] = quantile(o.opMS, 0.99)
	d["first_p95_ms"] = quantile(o.firstMS, 0.95)
	d["first_p99_ms"] = quantile(o.firstMS, 0.99)
	d["first_samples"] = float64(len(o.firstMS))
	d["fail_share"] = ratio(int(res.Failed), int(res.Attempted))
	d["covered_share"] = covered
	d["ci_ratio_p50"] = median(o.ratios)
	d["ci_ratio_cells"] = float64(len(o.ratios))
	d["model_used_share"] = ratio(o.modelCells, o.cells)
	d["live_heap_mb"] = l.heapMB
	d["synopsis_snippets"] = l.after["verdict_synopsis_snippets"]
	for i, s := range l.setupS {
		d[fmt.Sprintf("setup_%d_s", i+1)] = s
	}
	if w.stream {
		d["chunks_per_stream"] = mean(o.chunks)
	}
	if w.live {
		d["reader_p50_ms"] = median(o.readerMS)
		d["reader_p95_ms"] = quantile(o.readerMS, 0.95)
		d["reader_per_s"] = float64(len(o.readerMS)) / wall
		d["rebuild_ms"] = ms(float64(l.rebuild))
	}
	return res, nil
}

// querySeries is the leg's client-observed query latency: the primary
// series, or in live the concurrent reader's.
func (l *leg) querySeries() []float64 {
	if l.w.live {
		return l.obs.readerMS
	}
	return l.obs.opMS
}

func ratio(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
