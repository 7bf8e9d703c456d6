package aqp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
)

// benchScanRows sizes the scan benchmarks: at 1M rows the 256-group case of
// BenchmarkGroupedScan and the row-vs-vectorized gap of BenchmarkScan are
// measured at scale, not in cache-warm noise. -short drops to 64k rows.
const benchScanRows = 1 << 20

func benchRows() int {
	if testing.Short() {
		return 1 << 16
	}
	return benchScanRows
}

type scanBenchFixture struct {
	view  *View
	snips []*query.Snippet
	spec  *query.GroupedSpec // nil for an ungrouped sql
}

var (
	scanBenchMu    sync.Mutex
	scanBenchCache = map[string]*scanBenchFixture{}
	// scanBenchSink keeps each measured call's result live.
	scanBenchSink Increment
)

// scanBenchSetup builds (once per case) a rows-row table with groups cat
// values, clustered or shuffled on week, a full-fraction single-batch
// sample preserving the table's layout, the decomposed snippets of sql and,
// for a grouped sql, its discovery spec.
func scanBenchSetup(b *testing.B, rows, groups int, clustered bool, sql string) *scanBenchFixture {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%v/%s", rows, groups, clustered, sql)
	scanBenchMu.Lock()
	defer scanBenchMu.Unlock()
	if fx, ok := scanBenchCache[key]; ok {
		return fx
	}
	tb := buildGroupedTable(b, rows, groups, clustered)
	sample := &Sample{Data: tb, Fraction: 1, BatchSize: tb.Rows(), BaseRows: tb.Rows()}
	v := NewEngine(tb, sample, CachedCost).Acquire()
	fx := &scanBenchFixture{view: v, snips: groupedSnips(b, v, tb, sql)}
	if strings.Contains(sql, "GROUP BY") {
		fx.spec = specFor(b, tb, sql)
	}
	scanBenchCache[key] = fx
	return fx
}

func layoutName(clustered bool) string {
	if clustered {
		return "clustered"
	}
	return "shuffled"
}

// BenchmarkScan compares the engine's scan with the row-at-a-time reference
// on one AVG snippet with a ~5%-selective predicate on week. Clustered, zone
// maps prune almost every block; shuffled, only the columnar filter kernels
// and the block workers help.
func BenchmarkScan(b *testing.B) {
	rows := benchRows()
	for _, clustered := range []bool{true, false} {
		for _, mode := range []string{"vectorized", "rowref"} {
			b.Run(fmt.Sprintf("%s/%s", layoutName(clustered), mode), func(b *testing.B) {
				fx := scanBenchSetup(b, rows, 4, clustered, "SELECT AVG(val) FROM t WHERE week >= 42 AND week < 47")
				run := fx.view.RunToCompletion
				if mode == "rowref" {
					run = func(snips []*query.Snippet) Increment { return rowRunToCompletion(fx.view, snips) }
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scanBenchSink = run(fx.snips)
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
			})
		}
	}
}

// BenchmarkGroupedScan compares the discovery kernel
// (GroupedRunToCompletion) against the per-snippet reference fold of the
// decomposed statement across group counts and layouts. The interesting
// ratio is grouped vs persnippet at high group counts: the reference
// evaluates the region once per (group × aggregate) snippet and block while
// the discovery kernel evaluates it once per block.
func BenchmarkGroupedScan(b *testing.B) {
	rows := benchRows()
	for _, groups := range []int{1, 16, 256} {
		for _, clustered := range []bool{true, false} {
			for _, mode := range []string{"grouped", "persnippet"} {
				b.Run(fmt.Sprintf("groups=%d/%s/%s", groups, layoutName(clustered), mode), func(b *testing.B) {
					fx := scanBenchSetup(b, rows, groups, clustered, "SELECT cat, AVG(val), COUNT(*) FROM t GROUP BY cat")
					run := func() Increment { return fx.view.GroupedRunToCompletion(fx.spec, 0).Update }
					if mode == "persnippet" {
						run = func() Increment { return perSnippetRunToCompletion(fx.view, fx.snips) }
					}
					b.SetBytes(int64(rows) * 8)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						scanBenchSink = run()
					}
				})
			}
		}
	}
}
