// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 8 and Appendices A–E). Each runner generates
// its workload, drives the AQP engine and Verdict, and emits a Report whose
// rows mirror the artifact's rows/series. cmd/verdict-bench prints them;
// bench_test.go wraps them as testing.B benchmarks; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects experiment sizing: Small keeps unit tests fast; Full is the
// default for verdict-bench and the benchmark suite.
type Scale int

// Scales.
const (
	Small Scale = iota
	Full
)

// Options parameterizes a run.
type Options struct {
	Scale Scale
	Seed  int64
}

// Report is one experiment's rendered result.
type Report struct {
	ID      string   // e.g. "table4", "figure6a"
	Title   string   // paper artifact title
	Columns []string // header
	Rows    [][]string
	Notes   []string // caveats, substitutions, expected shapes
	// Timing names the columns whose cells are wall-clock measurements:
	// the only cells that may differ between two runs with the same
	// Options. Every other cell is a pure function of Options.
	Timing []string
	// Metrics, when populated, is the machine-readable companion of Rows —
	// one scalar per benchmark case (e.g. ns/op keyed by case name).
	// cmd/verdict-bench's -json flag persists it for trend tracking.
	Metrics map[string]float64
}

// Metric records one machine-readable scalar, allocating Metrics on first
// use.
func (r *Report) Metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[key] = v
}

// Add appends a formatted row.
func (r *Report) Add(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Note appends a free-form note.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Runner is one experiment.
type Runner func(Options) (*Report, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// Get returns the runner for an experiment id.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs lists registered experiments in a stable order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	sort.Strings(out)
	return out
}

// fmtF renders a float with sensible precision for report cells.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }

// fmtPct renders a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// fmtX renders a speedup multiplier.
func fmtX(v float64) string { return fmt.Sprintf("%.1f×", v) }
