// onlineagg demonstrates deployment scenario 1 (§7): an online-aggregation
// engine refines its answer over growing sample prefixes, and the user
// stops as soon as the error bound meets a target. With database learning,
// the target is met after far fewer rows — the paper's speedup mechanism,
// live. The refinement loop is the real progressive pipeline
// (aqp.ProgressiveScan over a doubling aqp.PrefixSchedule) that
// verdict-server's /query/stream endpoint drives — not a simulation — so
// every printed increment is replayable bit-for-bit via View.EvalPrefix.
//
//	go run ./examples/onlineagg
package main

import (
	"fmt"
	"log"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func main() {
	table, err := workload.GenerateCustomer1(120000, 5)
	if err != nil {
		log.Fatal(err)
	}
	sample, err := aqp.BuildSample(table, 0.25, 0, 6)
	if err != nil {
		log.Fatal(err)
	}
	// Cost model scaled so a full sample scan simulates ~6 s (cached tier).
	cost := aqp.CachedCost.Scaled(6 * aqp.CachedCost.RowsPerSecond / float64(sample.Data.Rows()))
	engine := aqp.NewEngine(table, sample, cost)
	v := core.New(table, core.Config{})

	// Warm up the synopsis with 60 past queries, then train offline.
	spec := workload.DefaultCustomer1TraceSpec()
	spec.Queries = 200
	spec.Seed = 9
	warm := 0
	for _, e := range workload.GenerateCustomer1Trace(spec) {
		if !e.Supported || warm >= 60 {
			continue
		}
		snips, err := decompose(engine, e.SQL)
		if err != nil {
			continue
		}
		upd := engine.RunToCompletion(snips)
		for i, sn := range snips {
			if upd.Valid[i] {
				v.Record(sn, upd.Estimates[i])
			}
		}
		warm++
	}
	if err := v.Train(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synopsis warmed with %d queries (%d snippets)\n\n", warm, v.SnippetCount())

	// The new query, refined online against a 1% relative error target.
	sql := "SELECT AVG(amount) FROM events WHERE event_date BETWEEN 120 AND 180"
	const target = 0.01
	fmt.Println(sql)
	fmt.Printf("stopping when the 95%% bound falls below ±%.1f%%\n\n", target*100)

	snips, err := decompose(engine, sql)
	if err != nil {
		log.Fatal(err)
	}
	sn := snips[0]
	exact := engine.Exact(sn)
	alpha := core.Alpha95

	fmt.Println("sample rows  sim-time   raw answer (±bound)        improved answer (±bound)")
	var rawDone, impDone bool
	ps := engine.Acquire().Progressive(snips)
	for _, prefix := range aqp.PrefixSchedule(ps.Total(), 1024) {
		u := ps.Step(prefix)
		if !u.Valid[0] {
			continue
		}
		raw := aqp.Sanitize(u.Estimates[0])
		inf := v.Infer(sn, raw)
		rawRel := alpha * raw.StdErr / exact
		impRel := alpha * inf.Err / exact
		note := ""
		if !impDone && impRel <= target {
			impDone = true
			note += "  <- Verdict meets target"
		}
		if !rawDone && rawRel <= target {
			rawDone = true
			note += "  <- NoLearn meets target"
		}
		fmt.Printf("%11d   %8s  %9.3f ±%5.2f%%         %9.3f ±%5.2f%%%s\n",
			u.Rows, u.SimTime.Round(1e7), raw.Value, rawRel*100, inf.Answer, impRel*100, note)
		if rawDone && impDone {
			break
		}
	}
	fmt.Printf("\nexact answer: %.3f\n", exact)
	if impDone && !rawDone {
		fmt.Println("NoLearn never met the target within the sample — Verdict did.")
	}

	// A dropped stream is not a restart: re-entering the scan at the last
	// received cursor folds the consumed prefix once (ProgressiveScan.From), and
	// every later increment is bit-identical to the uninterrupted stream's
	// — exactly how /query/stream resumes a POSTed cursor.
	view := engine.Acquire()
	sched := aqp.PrefixSchedule(view.SampleRows, 1024)
	const cut = 2 // increments received before the simulated disconnect
	full := view.Progressive(snips)
	resumed := view.Progressive(snips).From(sched[cut-1], cut-1, 0)
	identical := true
	for i, prefix := range sched {
		a := full.Step(prefix)
		if i < cut {
			continue
		}
		b := resumed.Step(prefix)
		if a.Seq != b.Seq || a.Rows != b.Rows || a.Estimates[0] != b.Estimates[0] {
			identical = false
		}
	}
	fmt.Printf("\nresume check: stream cut after %d increments, re-entered at row %d — continuation bit-identical: %v\n",
		cut, sched[cut-1], identical)
}

func decompose(engine *aqp.Engine, sql string) ([]*query.Snippet, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sup := query.Check(stmt); !sup.OK {
		return nil, fmt.Errorf("unsupported: %v", sup.Reasons)
	}
	region, err := query.BindRegion(stmt.Where, engine.Base())
	if err != nil {
		return nil, err
	}
	var groupCols []int
	for _, g := range stmt.GroupBy {
		col, ok := engine.Base().Schema().Lookup(g.Name)
		if !ok {
			return nil, fmt.Errorf("unknown column %s", g.Name)
		}
		groupCols = append(groupCols, col)
	}
	groups, err := engine.GroupRows(groupCols, region)
	if err != nil {
		return nil, err
	}
	decs, err := query.Decompose(stmt, engine.Base(), groups, 0)
	if err != nil {
		return nil, err
	}
	var out []*query.Snippet
	for _, d := range decs {
		out = append(out, d.Snippets...)
	}
	return out, nil
}
