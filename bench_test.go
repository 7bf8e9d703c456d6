// Package repro's root benchmark suite measures the core operations behind
// Lemma 2's complexity claims (inference, synopsis maintenance, kernel
// covariance, Cholesky solves, parsing, scan throughput) and the serving
// paths built on them (repeated and streamed queries, appends). The paper's
// tables and figures are cmd/verdict-bench's experiments, pinned by
// internal/experiments' golden test.
//
// Run everything:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ---- Core micro-benchmarks ----

// inferenceFixture builds a Verdict with n past snippets over a planted
// table, returning a fresh snippet + raw estimate to infer.
func inferenceFixture(b *testing.B, n int) (*core.Verdict, *query.Snippet, query.ScalarEstimate) {
	b.Helper()
	tb, _, err := workload.GeneratePlanted1D(workload.Planted1DSpec{
		Rows: 2000, Ell: 15, Sigma2: 9, NoiseStd: 0.2, Domain: 100, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(9)
	v := core.New(tb, core.Config{})
	xcol, _ := tb.Schema().Lookup("x")
	v.SetParams(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"},
		kernel.Params{Sigma2: 9, Ells: map[int]float64{xcol: 15}})
	mk := func(lo, hi float64) *query.Snippet {
		g := query.NewRegion(tb.Schema())
		g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
		ycol, _ := tb.Schema().Lookup("y")
		return &query.Snippet{
			Kind: query.AvgAgg, MeasureKey: "y",
			Measure: func(t *storage.Table, row int) float64 { return t.NumAt(row, ycol) },
			Region:  g, Table: tb,
		}
	}
	for i := 0; i < n; i++ {
		lo := rng.Uniform(0, 90)
		v.Record(mk(lo, lo+rng.Uniform(2, 8)),
			query.ScalarEstimate{Value: rng.Normal(0, 3), StdErr: 0.2})
	}
	if err := v.Train(); err != nil {
		b.Fatal(err)
	}
	return v, mk(40, 50), query.ScalarEstimate{Value: 0.5, StdErr: 0.4}
}

// BenchmarkInference measures one improved-answer computation (Eq. 11–12 +
// validation) against synopsis sizes — the O(n²) claim of Lemma 2.
func BenchmarkInference(b *testing.B) {
	for _, n := range []int{10, 100, 500, 1000} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			v, sn, raw := inferenceFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = v.Infer(sn, raw)
			}
		})
	}
}

// BenchmarkRecordIncremental measures the O(n²) incremental synopsis update.
func BenchmarkRecordIncremental(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			v, sn, raw := inferenceFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Record(sn, raw) // same key: refresh path
			}
		})
	}
}

// BenchmarkKernelCovariance measures one snippet-pair covariance (Eq. 10).
func BenchmarkKernelCovariance(b *testing.B) {
	tb, _, err := workload.GeneratePlanted1D(workload.Planted1DSpec{
		Rows: 100, Ell: 15, Sigma2: 9, NoiseStd: 0.2, Domain: 100, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	xcol, _ := tb.Schema().Lookup("x")
	mk := func(lo, hi float64) *query.Snippet {
		g := query.NewRegion(tb.Schema())
		g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
		return &query.Snippet{Kind: query.FreqAgg, Region: g, Table: tb}
	}
	s1, s2 := mk(10, 30), mk(20, 50)
	p := kernel.Params{Sigma2: 2, Ells: map[int]float64{xcol: 15}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kernel.Covariance(s1, s2, p)
	}
}

// BenchmarkCholesky measures factorization + solve at synopsis scale.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			rng := randx.New(4)
			l := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					l.Set(i, j, rng.Normal(0, 1))
				}
				l.Set(i, i, 1+rng.Float64())
			}
			a := linalg.NewMatrix(n, n) // L·Lᵀ
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					a.Set(i, j, linalg.Dot(l.Row(i)[:j+1], l.Row(j)[:j+1]))
					a.Set(j, i, a.At(i, j))
				}
			}
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = rng.Normal(0, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := linalg.NewCholesky(a)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Solve(rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParser measures SQL parsing + the supported-query check.
func BenchmarkParser(b *testing.B) {
	sql := `SELECT region, AVG(revenue), SUM(revenue * discount) FROM sales ` +
		`WHERE week BETWEEN 3 AND 17 AND region IN ('east', 'west') GROUP BY region HAVING SUM(revenue) > 100`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		_ = query.Check(stmt)
	}
}

// BenchmarkEngineScan measures the AQP engine's snippet-evaluation scan
// throughput (rows/op reported as custom metric).
func BenchmarkEngineScan(b *testing.B) {
	tb, err := workload.GenerateCustomer1(50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	sample, err := aqp.BuildSample(tb, 0.5, 0, 6)
	if err != nil {
		b.Fatal(err)
	}
	engine := aqp.NewEngine(tb, sample, aqp.CachedCost)
	stmt, err := sqlparse.Parse("SELECT AVG(amount) FROM events WHERE event_date BETWEEN 30 AND 90")
	if err != nil {
		b.Fatal(err)
	}
	decs, err := query.Decompose(stmt, tb, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	snips := decs[0].Snippets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.RunToCompletion(snips)
	}
	b.ReportMetric(float64(sample.Data.Rows()), "rows/op")
}

// BenchmarkServerThroughput measures end-to-end queries/sec through the
// HTTP serving layer (internal/server) at 1, 4 and 16 in-flight sessions
// sharing one synopsis. Each session issues queries over its own
// connection; the shared System serves them against snapshot-isolated
// views with inference running on published model snapshots.
func BenchmarkServerThroughput(b *testing.B) {
	tb, err := workload.GenerateCustomer1(50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	sample, err := aqp.BuildSample(tb, 0.2, 0, 6)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{})
	srv := server.New(sys, server.Config{MaxInFlight: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{
		"SELECT AVG(amount) FROM events WHERE event_date BETWEEN 30 AND 90",
		"SELECT COUNT(*) FROM events WHERE event_date < 60",
		"SELECT AVG(amount) FROM events WHERE event_date >= 100",
	}
	for _, sessions := range []int{1, 4, 16} {
		b.Run("sessions="+strconv.Itoa(sessions), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					client := &http.Client{}
					session := "bench-" + strconv.Itoa(s)
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						body, _ := json.Marshal(server.QueryRequest{
							SQL: queries[i%len(queries)], Session: session,
						})
						resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/sec")
		})
	}
}

// funcBenchTable builds a relation with one dimension column and nFuncs
// measure columns, so Record traffic spreads across nFuncs aggregate
// functions (each its own model).
func funcBenchTable(b *testing.B, rows, nFuncs int) *storage.Table {
	b.Helper()
	defs := []storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension, Min: 0, Max: 100},
	}
	for i := 0; i < nFuncs; i++ {
		defs = append(defs, storage.ColumnDef{
			Name: "m" + strconv.Itoa(i), Kind: storage.Numeric, Role: storage.Measure,
		})
	}
	schema := storage.MustSchema(defs)
	tb := storage.NewTable("funcbench", schema)
	rng := randx.New(3)
	vals := make([]storage.Value, len(defs))
	for r := 0; r < rows; r++ {
		vals[0] = storage.Num(rng.Uniform(0, 100))
		for i := 1; i < len(defs); i++ {
			vals[i] = storage.Num(rng.Normal(0, 1))
		}
		if err := tb.AppendRow(vals); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func funcBenchSnippet(tb *storage.Table, fn int, lo, hi float64) *query.Snippet {
	g := query.NewRegion(tb.Schema())
	xcol, _ := tb.Schema().Lookup("x")
	g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
	key := "m" + strconv.Itoa(fn)
	mcol, _ := tb.Schema().Lookup(key)
	return &query.Snippet{
		Kind:       query.AvgAgg,
		MeasureKey: key,
		Measure:    func(t *storage.Table, row int) float64 { return t.NumAt(row, mcol) },
		Region:     g,
		Table:      tb,
	}
}

// BenchmarkRecordParallel measures concurrent Record throughput.
// Goroutines hammer 16 distinct aggregate functions (the multi-tenant
// serving pattern); each model is its own writer domain, so writers on
// different functions proceed in parallel and records/s scales with cores.
// Each model sits at its LRU cap, so the per-op maintenance work (LRU scan,
// slot replacement, moment refresh over C_g entries) is constant across the
// run.
func BenchmarkRecordParallel(b *testing.B) {
	const nFuncs = 16
	tb := funcBenchTable(b, 2000, nFuncs)
	v := core.New(tb, core.Config{SynopsisCap: 192})
	// Warm every model past its cap so the steady state is uniform.
	warm := randx.New(9)
	for k := 0; k < 224; k++ {
		for fn := 0; fn < nFuncs; fn++ {
			lo := warm.Uniform(0, 90)
			v.Record(funcBenchSnippet(tb, fn, lo, lo+5),
				query.ScalarEstimate{Value: warm.Normal(0, 1), StdErr: 0.5})
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fn := int(next.Add(1)-1) % nFuncs
		rng := randx.New(int64(1000 + fn))
		for pb.Next() {
			lo := rng.Uniform(0, 90)
			v.Record(funcBenchSnippet(tb, fn, lo, lo+5),
				query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5})
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTrain measures Verdict.Train — Appendix A's likelihood fit and
// the factorization after it — for one AVG model holding n = 150 past
// snippets (the default LearnCap, so the whole synopsis is the learning
// set), over d = 1 numeric dimension and over customer1's d = 3 numeric
// and 4 categorical dimensions. Like the serving benchmark's queries, the
// customer1 snippets always constrain event_date and only now and then
// hour, latency_bucket, channel or status. Each likelihood candidate
// reads the learning set's kernel.Factors, so it pays for the integrals of
// the dimensions whose length-scale it moved and one O(n³) factorization,
// not n(n+1)/2 pair covariances.
func BenchmarkTrain(b *testing.B) {
	const n = 150
	one := funcBenchTable(b, 2000, 1)
	events, err := workload.GenerateCustomer1(20000, 5)
	if err != nil {
		b.Fatal(err)
	}
	col := func(name string) int {
		c, ok := events.Schema().Lookup(name)
		if !ok {
			b.Fatalf("customer1 has no column %s", name)
		}
		return c
	}
	date, hour, latency := col("event_date"), col("hour"), col("latency_bucket")
	channel, status, amount := col("channel"), col("status"), col("amount")
	cases := []struct {
		name  string
		tb    *storage.Table
		snip  func(rng *randx.Source) *query.Snippet
		trend func(sn *query.Snippet) float64
	}{
		{"d=1", one, func(rng *randx.Source) *query.Snippet {
			lo := rng.Uniform(0, 90)
			return funcBenchSnippet(one, 0, lo, lo+rng.Uniform(2, 10))
		}, func(sn *query.Snippet) float64 { return math.Sin(sn.Region.NumRangeOf(0, one).Lo / 15) }},
		{"d=3", events, func(rng *randx.Source) *query.Snippet {
			g := query.NewRegion(events.Schema())
			lo := float64(rng.Intn(330))
			g.ConstrainNum(date, query.NumRange{Lo: lo, Hi: lo + float64(10+rng.Intn(60))})
			if rng.Intn(5) == 0 {
				h := float64(rng.Intn(20))
				g.ConstrainNum(hour, query.NumRange{Lo: h, Hi: h + 4})
			}
			if rng.Intn(5) == 0 {
				l := float64(10 * rng.Intn(8))
				g.ConstrainNum(latency, query.NumRange{Lo: l, Hi: l + 20})
			}
			if rng.Intn(3) == 0 {
				g.ConstrainCat(channel, query.CatSet{Codes: []int32{int32(rng.Intn(events.DictOf(channel).Size()))}})
			}
			if rng.Intn(4) == 0 {
				g.ConstrainCat(status, query.CatSet{Codes: []int32{int32(rng.Intn(events.DictOf(status).Size()))}})
			}
			return &query.Snippet{
				Kind:       query.AvgAgg,
				MeasureKey: "amount",
				Measure:    func(t *storage.Table, row int) float64 { return t.NumAt(row, amount) },
				Region:     g,
				Table:      events,
			}
		}, func(sn *query.Snippet) float64 { return math.Sin(sn.Region.NumRangeOf(date, events).Lo / 60) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			v := core.New(c.tb, core.Config{})
			rng := randx.New(4)
			for i := 0; i < n; i++ {
				sn := c.snip(rng)
				v.Record(sn, query.ScalarEstimate{Value: c.trend(sn) + rng.Normal(0, 0.2), StdErr: 0.2})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Train(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynopsisRecord measures one synopsis mutation plus the Infer
// that republishes after it — what a serving request pays — for each kind
// of mutation model.record distinguishes: a new snippet at the cap
// (eviction), a repeat that teaches nothing, and a repeat with a lower
// error. kernel-calls/op is the number of covariance integrals evaluated for
// synopsis maintenance (the probe's own n per Infer are not counted): n for
// a new snippet, 0 for the rest. refactorizations/op counts from-scratch
// O(n³) factorizations: an evict or an improved repeat edits the factor in
// O(n²) instead, so at the cap it is one per n records (the σ² refresh).
// Lemma 3's append adjustment, the one edit still at 1, is
// internal/core's BenchmarkAppendAdjust. evict/cap=2000 runs at the default
// cap; its setup records 2000 snippets and factorizes once.
func BenchmarkSynopsisRecord(b *testing.B) {
	tb := funcBenchTable(b, 2000, 1)
	probe := funcBenchSnippet(tb, 0, 40, 45)
	raw := query.ScalarEstimate{Value: 0, StdErr: 0.5}
	// setup fills a synopsis with n distinct snippets and publishes it.
	setup := func(cap, n int) (*core.Verdict, []*query.Snippet) {
		v := core.New(tb, core.Config{SynopsisCap: cap})
		rng := randx.New(11)
		held := make([]*query.Snippet, n)
		for i := range held {
			lo := rng.Uniform(0, 90)
			held[i] = funcBenchSnippet(tb, 0, lo, lo+5)
			v.Record(held[i], query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5})
		}
		v.Infer(probe, raw)
		return v, held
	}
	counters := func(v *core.Verdict) (kernelCalls, refactorizations int64) {
		c := v.Counters()
		return c.GramKernelCalls, c.Refactorizations
	}
	run := func(name string, cap, n int, op func(v *core.Verdict, held []*query.Snippet, rng *randx.Source, i int)) {
		b.Run(name, func(b *testing.B) {
			v, held := setup(cap, n)
			rng := randx.New(12)
			calls0, refacts0 := counters(v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(v, held, rng, i)
				v.Infer(probe, raw)
			}
			calls, refacts := counters(v)
			b.ReportMetric(float64(calls-calls0)/float64(b.N), "kernel-calls/op")
			b.ReportMetric(float64(refacts-refacts0)/float64(b.N), "refactorizations/op")
		})
	}
	evict := func(v *core.Verdict, _ []*query.Snippet, rng *randx.Source, _ int) {
		lo := rng.Uniform(0, 90)
		v.Record(funcBenchSnippet(tb, 0, lo, lo+5), query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5})
	}
	run("evict/cap=128", 128, 128, evict)
	run("evict/cap=512", 512, 512, evict)
	run("evict/cap=2000", 2000, 2000, evict)
	run("repeat-unchanged/n=48", 0, 48, func(v *core.Verdict, held []*query.Snippet, rng *randx.Source, i int) {
		v.Record(held[i%len(held)], query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5})
	})
	run("repeat-improved/n=48", 0, 48, func(v *core.Verdict, held []*query.Snippet, rng *randx.Source, i int) {
		v.Record(held[i%len(held)], query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5 / (1 + 1e-6*float64(i+1))})
	})
}

// BenchmarkRepeatedQuery measures what the scan memo buys a recorded
// one-shot query, for a flat and a GROUP BY statement: asked again on an
// unchanged sample (nothing is scanned), asked again after a 500-row append
// (the tail's partial work unit is folded again: here the whole sample,
// which is below one 65 536-row unit, and the rows appended so far), and
// never asked before (the full sample). The rows-scanned/op metric is read
// off SystemStats.ScanMemoRows and is the number to compare against the
// engine's 10 000-row sample and 500-row batches; ns/op also carries parse,
// plan, inference and record.
func BenchmarkRepeatedQuery(b *testing.B) {
	batches := make([]*storage.Table, 8)
	for i := range batches {
		var err error
		if batches[i], err = workload.GenerateCustomer1(500, int64(100+i)); err != nil {
			b.Fatal(err)
		}
	}
	shapes := []struct{ name, repeat, unique string }{
		{"ungrouped",
			"SELECT AVG(amount) FROM events WHERE event_date BETWEEN 30 AND 90",
			"SELECT AVG(amount) FROM events WHERE event_date BETWEEN %d AND %d.5"},
		{"grouped",
			"SELECT channel, COUNT(*), AVG(amount) FROM events WHERE event_date BETWEEN 30 AND 90 GROUP BY channel",
			"SELECT channel, COUNT(*), AVG(amount) FROM events WHERE event_date BETWEEN %d AND %d.5 GROUP BY channel"},
	}
	for _, shape := range shapes {
		for _, mode := range []string{"same-view", "after-append", "unique"} {
			b.Run(shape.name+"/"+mode, func(b *testing.B) {
				tb, err := workload.GenerateCustomer1(50000, 5)
				if err != nil {
					b.Fatal(err)
				}
				sample, err := aqp.BuildSample(tb, 0.2, 0, 6)
				if err != nil {
					b.Fatal(err)
				}
				sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{SynopsisCap: 64})
				if _, err := sys.Execute(shape.repeat); err != nil {
					b.Fatal(err)
				}
				before := sys.StatsSnapshot().ScanMemoRows
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sql := shape.repeat
					switch mode {
					case "after-append":
						b.StopTimer()
						if _, err := sys.Append(batches[i%len(batches)]); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					case "unique":
						sql = fmt.Sprintf(shape.unique, i%60, 61+i/60)
					}
					if _, err := sys.Execute(sql); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sys.StatsSnapshot().ScanMemoRows-before)/float64(b.N), "rows-scanned/op")
			})
		}
	}
}

// BenchmarkRepeatedStream measures what the scan memo buys a progressive
// stream on the default schedule, run to the end of a 100 000-row sample
// (6 increments: 4096 … 65 536, then the whole sample), for a flat and a
// GROUP BY statement: the same statement streamed again on an unchanged
// sample re-emits the stored increments and scans nothing, while a
// statement never streamed before scans every prefix — about 161 000 rows,
// since each increment below the 65 536-row work unit re-covers its tail
// from row 0 (a grouped stream also folds the whole sample once for its
// answer set, which the memo counter does not see). one-shot asks the
// first-sight statements through Execute instead, the 100 000-row cost the
// stream's increments are paid against. rows-scanned/op is read off
// SystemStats.ScanMemoRows; first-increment-ns/op is the wait for a
// stream's first increment; ns/op also carries parse, plan, inference per
// increment and the final record.
func BenchmarkRepeatedStream(b *testing.B) {
	tb, err := workload.GenerateCustomer1(200000, 5)
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct{ name, repeat, unique string }{
		{"ungrouped",
			"SELECT AVG(amount), COUNT(*) FROM events WHERE event_date BETWEEN 30 AND 90",
			"SELECT AVG(amount), COUNT(*) FROM events WHERE event_date BETWEEN %d AND %d.5"},
		{"grouped",
			"SELECT channel, AVG(amount), COUNT(*) FROM events WHERE event_date BETWEEN 30 AND 90 GROUP BY channel",
			"SELECT channel, AVG(amount), COUNT(*) FROM events WHERE event_date BETWEEN %d AND %d.5 GROUP BY channel"},
	}
	stream := func(sys *core.System, sql string) (first time.Duration) {
		start := time.Now()
		if _, err := sys.ExecuteProgressive(context.Background(), sql, core.ProgressiveOptions{},
			func(_ *core.Result, p core.Progress) bool {
				if p.Seq == 0 {
					first = time.Since(start)
				}
				return true
			}); err != nil {
			b.Fatal(err)
		}
		return first
	}
	for _, shape := range shapes {
		for _, mode := range []string{"repeat", "first-sight", "one-shot"} {
			b.Run(shape.name+"/"+mode, func(b *testing.B) {
				sample, err := aqp.BuildSample(tb, 0.5, 0, 6)
				if err != nil {
					b.Fatal(err)
				}
				sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{SynopsisCap: 64})
				stream(sys, shape.repeat)
				before := sys.StatsSnapshot().ScanMemoRows
				var first time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sql := shape.repeat
					if mode != "repeat" {
						sql = fmt.Sprintf(shape.unique, i%60, 61+i/60)
					}
					if mode == "one-shot" {
						if _, err := sys.Execute(sql); err != nil {
							b.Fatal(err)
						}
						continue
					}
					first += stream(sys, sql)
				}
				b.ReportMetric(float64(sys.StatsSnapshot().ScanMemoRows-before)/float64(b.N), "rows-scanned/op")
				if mode != "one-shot" {
					b.ReportMetric(float64(first.Nanoseconds())/float64(b.N), "first-increment-ns/op")
				}
			})
		}
	}
}

// BenchmarkAppend measures System.Append of 500-row batches on a 100 000-row
// sample with one AVG and one COUNT model and no subscribers: the engine
// append, the Lemma 3 adjustment and the drift estimate behind it. Each AVG
// model carries its old-sample bucket moments across appends, so the
// estimate buckets only the rows the previous batch put into the sample
// (≈ 250 at this sampling fraction) rather than the whole sample;
// drift-rows/op is read off SystemStats.DriftRows.
func BenchmarkAppend(b *testing.B) {
	tb, err := workload.GenerateCustomer1(200000, 5)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]*storage.Table, 8)
	for i := range batches {
		if batches[i], err = workload.GenerateCustomer1(500, int64(100+i)); err != nil {
			b.Fatal(err)
		}
	}
	sample, err := aqp.BuildSample(tb, 0.5, 0, 6)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{SynopsisCap: 64})
	if _, err := sys.Execute("SELECT AVG(amount), COUNT(*) FROM events WHERE event_date BETWEEN 30 AND 90"); err != nil {
		b.Fatal(err)
	}
	// The first append has no carried moments yet and buckets the whole
	// sample; keep it out of the measurement.
	if _, err := sys.Append(batches[len(batches)-1]); err != nil {
		b.Fatal(err)
	}
	before := sys.StatsSnapshot().DriftRows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Append(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.StatsSnapshot().DriftRows-before)/float64(b.N), "drift-rows/op")
}

// BenchmarkAppendRequest posts a 500-row customer1 /append body, shaped
// like the serving benchmark's live batches (positional rows, shortest
// round-trip floats, quoted categories), through server.Handler: body read,
// decode into the batch table, System.Append and the response. The system
// holds no models, so no Lemma 3 adjustment or notify hides the request
// path, of which the decode is the largest part.
func BenchmarkAppendRequest(b *testing.B) {
	tb, err := workload.GenerateCustomer1(50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	sample, err := aqp.BuildSample(tb, 0.2, 0, 6)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{}), server.Config{})
	defer srv.Close()
	h := srv.Handler()
	bodies := make([][]byte, 8)
	for i := range bodies {
		batch, err := workload.GenerateCustomer1(500, int64(100+i))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = appendJSON(batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// appendJSON renders t as an explicit /append body.
func appendJSON(t *storage.Table) []byte {
	schema := t.Schema()
	buf := []byte(`{"rows":[`)
	for r := 0; r < t.Rows(); r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for c := 0; c < schema.Len(); c++ {
			if c > 0 {
				buf = append(buf, ',')
			}
			if schema.Col(c).Kind == storage.Numeric {
				buf = strconv.AppendFloat(buf, t.NumAt(r, c), 'g', -1, 64)
			} else {
				buf = strconv.AppendQuote(buf, t.StrAt(r, c))
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}
