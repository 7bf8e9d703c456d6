// Command verdict-bench runs the paper-reproduction experiments and prints
// their report tables — one per table/figure of the evaluation section.
//
// Usage:
//
//	verdict-bench -list
//	verdict-bench -exp table4
//	verdict-bench -exp all -scale full -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment ids (see -list) or 'all'")
		scale = flag.String("scale", "small", "small | full")
		seed  = flag.Int64("seed", 1, "random seed")
		list  = flag.Bool("list", false, "list experiment ids and exit")
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
	}
	if failed {
		os.Exit(1)
	}
}
