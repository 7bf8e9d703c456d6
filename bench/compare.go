package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// A set is what -runs writes and -compare reads: every workload run under
// several seeds, each run a process of its own exactly as the driver makes
// them, with the median, quartiles and spread of each end-to-end metric.

// line is the last stdout line of one run.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	line
}

// summary is one workload × metric cell of a set.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 − Q1) ÷ median, with quartiles as Python's
	// statistics.quantiles(values, n=4) gives them.
	Spread float64 `json:"spread"`
}

type set struct {
	Env     environment                   `json:"environment"`
	Seconds float64                       `json:"seconds"`
	Runs    []setRun                      `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"` // workload → metric
}

// lastLine parses the result line that ends a run's stdout.
func lastLine(out []byte) (line, error) {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var l line
	if err := json.Unmarshal(out, &l); err != nil {
		return line{}, fmt.Errorf("no result line: %w", err)
	}
	return l, nil
}

// runSet runs every workload n times, seeds seed … seed+n−1, one process
// per run, and summarizes the end-to-end metrics. The workloads take turns
// seed by seed, so each one's runs span the whole measurement and a slow
// phase of the machine widens every spread instead of shifting one median.
func runSet(n int, seed int64, seconds float64, progress io.Writer) (*set, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &set{Env: readEnvironment(), Seconds: seconds, Summary: map[string]map[string]summary{}}
	values := map[string]map[string][]float64{}
	for k := int64(0); k < int64(n); k++ {
		for _, w := range workloads {
			cmd := exec.Command(exe,
				"--workload", w.name, "--seed", strconv.FormatInt(seed+k, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, seed+k, err)
			}
			l, err := lastLine(out)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, seed+k, err)
			}
			s.Runs = append(s.Runs, setRun{Workload: w.name, Seed: seed + k, line: l})
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range l.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			fmt.Fprintf(progress, "%s seed %d: op_p50 %.3f ms, failed %d\n", w.name, seed+k, l.Metrics["op_p50_ms"].Value, l.Failed)
		}
	}
	for name, metrics := range values {
		s.Summary[name] = map[string]summary{}
		for metric, vs := range metrics {
			q1, q3 := quartiles(vs)
			s.Summary[name][metric] = summary{Values: vs, Median: median(vs), Q1: q1, Q3: q3, Spread: spread(vs)}
		}
	}
	return s, nil
}

func (s *set) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			c := s.Summary[wl.name][def.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g\t%.4g\t%.3f\t%.2f\n", wl.name, def.Name, c.Median, def.Unit, c.Q1, c.Q3, c.Spread, def.Bound)
		}
	}
	tw.Flush()
}

func (s *set) failed() int64 {
	var n int64
	for _, r := range s.Runs {
		n += r.Failed
	}
	return n
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one workload × metric pair of two sets: b is worse than a
// by (b−a)÷a for a lower-is-better metric, (a−b)÷a otherwise. A pair whose
// recorded spread exceeds the bound cannot resolve a change of that size.
func verdict(def metricDef, a, b summary) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if def.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case a.Spread > def.Bound || b.Spread > def.Bound:
		return worse, "unresolved"
	case worse > def.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compare prints one row per workload × end-to-end metric and reports
// whether b holds against a: no regressed row and no more failed ops.
func compare(a, b *set, w io.Writer) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb÷a\tworse by\tbound\tspread a/b\tverdict")
	ok := true
	for _, wl := range workloads {
		for _, def := range endToEnd {
			ca, cb := a.Summary[wl.name][def.Name], b.Summary[wl.name][def.Name]
			worse, v := verdict(def, ca, cb)
			if v == "regressed" {
				ok = false
			}
			rel := 0.0
			if ca.Median != 0 {
				rel = cb.Median / ca.Median
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g\t%.3f× of %.4g\t%+.3f\t%.2f\t%.3f/%.3f\t%s\n",
				wl.name, def.Name, ca.Median, def.Unit, cb.Median, rel, ca.Median, worse, def.Bound, ca.Spread, cb.Spread, v)
		}
	}
	tw.Flush()
	if fa, fb := a.failed(), b.failed(); fb > fa {
		fmt.Fprintf(w, "failed ops rose from %d to %d\n", fa, fb)
		ok = false
	}
	return ok
}
