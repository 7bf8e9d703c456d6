// smarterdb demonstrates the "becomes smarter every time" promise across
// process restarts: session 1 answers a workload over the left half of the
// domain and saves its synopsis; session 2 loads it, is immediately as
// smart as session 1 ended, and then answers its own users' queries over
// windows that overlap x∈[70,80] without covering it. A query over that
// window, which no user of either session asked, gets a tighter bound from
// session 2's synopsis than from session 1's.
//
//	go run ./examples/smarterdb
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

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
	rangeSnippet := func(lo, hi float64) *query.Snippet {
		g := query.NewRegion(tb.Schema())
		g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
		return &query.Snippet{
			Kind: query.AvgAgg, MeasureKey: "y",
			Measure: func(t *storage.Table, row int) float64 { return t.NumAt(row, ycol) },
			Region:  g, Table: tb,
		}
	}
	// answer runs one user query to completion and records it, as the
	// serving loop does (Algorithm 2).
	answer := func(v *core.Verdict, lo, hi float64) {
		sn := rangeSnippet(lo, hi)
		upd := engine.RunToCompletion([]*query.Snippet{sn})
		if upd.Valid[0] {
			v.Record(sn, upd.Estimates[0])
		}
	}
	// meanVariance is the model's predictive variance γ² averaged over
	// windows tiling the domain: lower means a smarter synopsis.
	meanVariance := func(v *core.Verdict) float64 {
		sum, n := 0.0, 0
		for lo := 0.0; lo < 100; lo += 3 {
			sum += v.Infer(rangeSnippet(lo, min(lo+6, 100)), query.ScalarEstimate{StdErr: math.Inf(1)}).Gamma2
			n++
		}
		return sum / float64(n)
	}

	// --- Session 1: a workload concentrated on the left half. ---
	v1 := core.New(tb, core.Config{})
	rng := randx.New(79)
	for i := 0; i < 25; i++ {
		lo := rng.Uniform(0, 40)
		answer(v1, lo, lo+8)
	}
	if err := v1.Train(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: %d snippets learned; mean predictive variance %.3f\n",
		v1.SnippetCount(), meanVariance(v1))

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
		v2.SnippetCount(), meanVariance(v2))
	demo := rangeSnippet(20, 30)
	raw := engineEstimate(engine, demo, 2) // a cheap two-batch answer
	inf := v2.Infer(demo, raw)
	exact := engine.Exact(demo)
	fmt.Printf("           AVG(y) over x∈[20,30]: improved %.2f ± %.2f (exact %.2f, raw ± %.2f)\n",
		inf.Answer, 1.96*inf.Err, exact, 1.96*raw.StdErr)

	// Session 2's users ask about the right half: windows that overlap
	// x∈[70,80] but never cover it.
	for i := 0; i < 8; i++ {
		lo := rng.Uniform(63, 67)
		answer(v2, lo, lo+8)
		lo = rng.Uniform(75, 79)
		answer(v2, lo, lo+8)
	}
	if err := v2.Train(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("           %d snippets after its own workload; mean predictive variance %.3f\n\n",
		v2.SnippetCount(), meanVariance(v2))

	// --- A query over a never-queried region now benefits. ---
	far := rangeSnippet(70, 80)
	rawFar := engineEstimate(engine, far, 2)
	before := v1.Infer(far, rawFar)
	after := v2.Infer(far, rawFar)
	exactFar := engine.Exact(far)
	fmt.Println("query over x∈[70,80] (never asked by any user):")
	fmt.Printf("  raw two-batch answer:  %.2f ± %.2f (|err| %.2f)\n",
		rawFar.Value, 1.96*rawFar.StdErr, math.Abs(rawFar.Value-exactFar))
	fmt.Printf("  session 1's synopsis:  %.2f ± %.2f (|err| %.2f)\n",
		before.Answer, 1.96*before.Err, math.Abs(before.Answer-exactFar))
	fmt.Printf("  session 2's synopsis:  %.2f ± %.2f (|err| %.2f)\n",
		after.Answer, 1.96*after.Err, math.Abs(after.Answer-exactFar))
}

// engineEstimate returns a deliberately coarse raw answer: the prefix of
// the sample's first few online-aggregation batches.
func engineEstimate(engine *aqp.Engine, sn *query.Snippet, batches int) query.ScalarEstimate {
	view := engine.Acquire()
	_, end := view.Sample.BatchBounds(batches - 1)
	return aqp.Sanitize(view.EvalPrefix([]*query.Snippet{sn}, end).Estimates[0])
}
