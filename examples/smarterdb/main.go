// smarterdb demonstrates the "becomes smarter every time" promise across
// process restarts, plus active database learning (§10's future-work
// direction): session 1 answers a workload and saves its synopsis; session
// 2 loads it and is immediately as smart as session 1 ended; an active
// campaign then spends idle time probing the model's most uncertain
// regions, making session 3 smarter than any query history alone would.
//
//	go run ./examples/smarterdb
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"repro/internal/active"
	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	tb, _, err := workload.GeneratePlanted1D(workload.Planted1DSpec{
		Rows: 60000, Ell: 18, Sigma2: 16, Mean: 100, NoiseStd: 1, Domain: 100, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}
	sample, err := aqp.BuildSample(tb, 0.2, 0, 78)
	if err != nil {
		log.Fatal(err)
	}
	engine := aqp.NewEngine(tb, sample, aqp.CachedCost)
	xcol, _ := tb.Schema().Lookup("x")
	ycol, _ := tb.Schema().Lookup("y")
	mkSnippet := func(g *query.Region) *query.Snippet {
		return &query.Snippet{
			Kind: query.AvgAgg, MeasureKey: "y",
			Measure: func(t *storage.Table, row int) float64 { return t.NumAt(row, ycol) },
			Region:  g, Table: tb,
		}
	}
	rangeSnippet := func(lo, hi float64) *query.Snippet {
		g := query.NewRegion(tb.Schema())
		g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
		return mkSnippet(g)
	}
	probes := active.Grid1D(tb, xcol, 6, mkSnippet)

	// --- Session 1: a workload concentrated on the left half. ---
	v1 := core.New(tb, core.Config{})
	rng := randx.New(79)
	for i := 0; i < 25; i++ {
		lo := rng.Uniform(0, 40)
		sn := rangeSnippet(lo, lo+8)
		upd := engine.RunToCompletion([]*query.Snippet{sn})
		if upd.Valid[0] {
			v1.Record(sn, upd.Estimates[0])
		}
	}
	if err := v1.Train(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: %d snippets learned; mean predictive variance %.3f\n",
		v1.SnippetCount(), active.MeanUncertainty(v1, probes))

	// Persist the synopsis — the "database" shuts down.
	var disk bytes.Buffer
	if err := v1.Save(&disk); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("           synopsis saved (%d bytes of JSON)\n\n", disk.Len())

	// --- Session 2: restart, load, and answer immediately. ---
	v2, err := core.Load(bytes.NewReader(disk.Bytes()), tb, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: loaded %d snippets; mean predictive variance %.3f (identical)\n",
		v2.SnippetCount(), active.MeanUncertainty(v2, probes))
	demo := rangeSnippet(20, 30)
	raw := engineEstimate(engine, demo, 2) // a cheap two-batch answer
	inf := v2.Infer(demo, raw)
	exact := engine.Exact(demo)
	fmt.Printf("           AVG(y) over x∈[20,30]: improved %.2f ± %.2f (exact %.2f, raw ± %.2f)\n\n",
		inf.Answer, 1.96*inf.Err, exact, 1.96*raw.StdErr)

	// --- Active learning: probe the uncovered right half during idle time. ---
	cands := active.Grid1D(tb, xcol, 12, mkSnippet)
	steps, err := active.Campaign(v2, engine, cands, active.Config{Rounds: 8, Batches: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("active campaign: %d probes executed, chosen by predictive variance:\n", len(steps))
	for _, s := range steps {
		rg := s.Snippet.Region.NumRangeOf(xcol, tb)
		fmt.Printf("  probed x∈[%5.1f, %5.1f]  (γ²=%6.2f before, sim cost %v)\n",
			rg.Lo, rg.Hi, s.Gamma2Before, s.SimTime.Round(1e7))
	}
	fmt.Printf("mean predictive variance after campaign: %.3f\n\n", active.MeanUncertainty(v2, probes))

	// --- Session 3: a query over a never-queried region now benefits. ---
	far := rangeSnippet(70, 80)
	rawFar := engineEstimate(engine, far, 2)
	before := v1.Infer(far, rawFar)
	after := v2.Infer(far, rawFar)
	exactFar := engine.Exact(far)
	fmt.Println("query over x∈[70,80] (never asked by any user):")
	fmt.Printf("  without active learning: %.2f ± %.2f (|err| %.2f)\n",
		before.Answer, 1.96*before.Err, math.Abs(before.Answer-exactFar))
	fmt.Printf("  with    active learning: %.2f ± %.2f (|err| %.2f)\n",
		after.Answer, 1.96*after.Err, math.Abs(after.Answer-exactFar))
}

// engineEstimate returns a deliberately coarse raw answer: the prefix of
// the sample's first few online-aggregation batches.
func engineEstimate(engine *aqp.Engine, sn *query.Snippet, batches int) query.ScalarEstimate {
	view := engine.Acquire()
	_, end := view.Sample.BatchBounds(batches - 1)
	return aqp.Sanitize(view.EvalPrefix([]*query.Snippet{sn}, end).Estimates[0])
}
