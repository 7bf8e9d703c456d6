// Command verdict-bench runs the paper-reproduction experiments and prints
// their report tables — one per table/figure of the evaluation section.
//
// Usage:
//
//	verdict-bench -list
//	verdict-bench -exp table4
//	verdict-bench -exp all -scale full -seed 3
//	verdict-bench -exp notifybench -json BENCH_notify.json
//	verdict-bench -exp progressivebench,notifybench,partitionbench -json-dir bench-out
//
// -json writes the machine-readable metrics (ns/op per benchmark case) of
// every executed experiment that records them, as a single JSON object
// keyed experiment id → case → value. -json-dir instead writes one
// BENCH_<name>.json per executed experiment (notifybench → BENCH_notify.json),
// the per-experiment artifacts CI uploads as the perf trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids (see -list) or 'all'")
		scale    = flag.String("scale", "small", "small | full")
		seed     = flag.Int64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath = flag.String("json", "", "write per-case metrics (ns/op) of the executed experiments to this file")
		jsonDir  = flag.String("json-dir", "", "write one BENCH_<name>.json per executed experiment into this directory")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	opts := experiments.Options{Scale: experiments.Small, Seed: *seed}
	switch *scale {
	case "small":
	case "full":
		opts.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small|full)\n", *scale)
		os.Exit(2)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}
	failed := false
	metrics := map[string]map[string]float64{}
	for _, id := range ids {
		runner, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		if len(rep.Metrics) > 0 {
			metrics[rep.ID] = rep.Metrics
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *jsonPath)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mkdir %s: %v\n", *jsonDir, err)
			os.Exit(1)
		}
		for id, m := range metrics {
			path := filepath.Join(*jsonDir, benchArtifactName(id))
			if err := writeJSON(path, m); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("metrics written to %s\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// benchArtifactName maps an experiment id to its trajectory artifact:
// notifybench → BENCH_notify.json, progressivebench →
// BENCH_progressive.json; ids without the suffix keep their full name.
func benchArtifactName(id string) string {
	name := strings.TrimSuffix(id, "bench")
	if name == "" {
		name = id
	}
	return "BENCH_" + name + ".json"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal metrics: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
