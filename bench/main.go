// Command bench is the repository's serving benchmark: it boots a real
// server.Server on a loopback listener, wired as cmd/verdict-server wires
// it, and drives it over HTTP with closed-loop clients through four
// workloads (explore, dashboard, stream, live). One run measures one
// workload and ends its standard output with one JSON result line:
//
//	go run -C bench . --workload explore --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the workload
// at half length with spans recorded and reports the per-layer metrics.
// -runs N -out set.json measures a whole set (every workload under N
// seeds), -compare a.json b.json judges one set against another, -smoke
// runs everything at a fiftieth of the size, and -manifest prints
// BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

func main() {
	var (
		name     = flag.String("workload", "", "explore | dashboard | stream | live")
		seed     = flag.Int64("seed", 1, "input seed: same seed, same relation, statements and batches")
		seconds  = flag.Float64("seconds", 10, "timed-phase length the fixed op counts are sized for")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "also write the run (or, with -runs, the set) as JSON to this file")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default .out/spans-<workload>-<seed>.ndjson)")
		runs     = flag.Int("runs", 0, "measure a set: every workload under this many seeds, one process per run")
		cmp      = flag.Bool("compare", false, "compare two sets: -compare a.json b.json")
		smoke    = flag.Bool("smoke", false, "run all four workloads, untraced and traced, at 1/50 size")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the definitions in this directory give it")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(buildManifest())
	case *cmp:
		err = compareFiles(flag.Args())
	case *smoke:
		_, err = runSmoke(*seed, filepath.Join(".out", "smoke"), os.Stdout)
	case *runs > 0:
		err = measureSet(*runs, *seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runOne(name string, seed int64, seconds float64, trace int, out, traceOut string) error {
	w, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (explore | dashboard | stream | live)", name)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if traceOut == "" {
		traceOut = filepath.Join(".out", fmt.Sprintf("spans-%s-%d.ndjson", name, seed))
	}
	if trace == 1 {
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return err
		}
	}
	res, err := run(w, defaultSizing(seconds), seed, trace == 1, traceOut)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	}); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness audit failed (%d violations, %d failed ops)", name, len(res.Violations), res.Failed)
	}
	return nil
}

// print lists every metric by name with its unit, then the ungated detail.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d  inputs %s\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Digest)
	fmt.Fprintf(w, "%s, GOMAXPROCS %d of %d CPUs, %s, commit %s\n", r.Env.CPUModel, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.GoVersion, r.Env.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, def := range metricDefs(r.Trace == 1) {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", def.Name, r.Metrics[def.Name].Value, def.Unit, def.Source)
	}
	names := make([]string, 0, len(r.Detail))
	for name := range r.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t\n", name, r.Detail[name])
	}
	tw.Flush()
	for _, v := range r.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	if r.SpanFile != "" {
		fmt.Fprintln(w, "spans:", r.SpanFile)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func measureSet(n int, seed int64, seconds float64, out string) error {
	s, err := runSet(n, seed, seconds, os.Stderr)
	if err != nil {
		return err
	}
	s.print(os.Stdout)
	if out != "" {
		return writeJSON(out, s)
	}
	return nil
}

func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare a.json b.json")
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	if !compare(a, b, os.Stdout) {
		return fmt.Errorf("%s regresses against %s", args[1], args[0])
	}
	return nil
}

// runSmoke runs every workload untraced and traced at smoke size, in this
// process, and checks that every metric is present and finite. It returns
// the span files it wrote under dir.
func runSmoke(seed int64, dir string, w io.Writer) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			spanFile := filepath.Join(dir, "spans-"+spec.name+".ndjson")
			res, err := run(spec, smokeSizing(), seed, traced, spanFile)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s (trace %v): %v", spec.name, traced, res.Violations)
			}
			for _, def := range metricDefs(traced) {
				m, ok := res.Metrics[def.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					return nil, fmt.Errorf("%s: metric %s missing or not finite", spec.name, def.Name)
				}
			}
			if traced {
				files = append(files, res.SpanFile)
			}
			fmt.Fprintf(w, "smoke %s trace=%v: %d ops, %d metrics ok\n", spec.name, traced, res.Attempted, len(res.Metrics))
		}
	}
	return files, nil
}
