package active

import (
	"math"
	"testing"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fixture: planted 1-D table, engine and a Verdict whose synopsis covers
// ONLY the left half of the domain.
func fixture(t *testing.T) (*storage.Table, *aqp.Engine, *core.Verdict, func(*query.Region) *query.Snippet) {
	t.Helper()
	tb, _, err := workload.GeneratePlanted1D(workload.Planted1DSpec{
		Rows: 8000, Ell: 15, Sigma2: 9, NoiseStd: 0.2, Domain: 100, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := aqp.BuildSample(tb, 0.5, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	engine := aqp.NewEngine(tb, sample, aqp.CachedCost)

	xcol, _ := tb.Schema().Lookup("x")
	ycol, _ := tb.Schema().Lookup("y")
	mk := func(g *query.Region) *query.Snippet {
		return &query.Snippet{
			Kind: query.AvgAgg, MeasureKey: "y",
			Measure: func(t *storage.Table, row int) float64 { return t.NumAt(row, ycol) },
			Region:  g, Table: tb,
		}
	}
	v := core.New(tb, core.Config{})
	v.SetParams(query.FuncID{Kind: query.AvgAgg, MeasureKey: "y"},
		kernel.Params{Sigma2: 9, Ells: map[int]float64{xcol: 15}})
	rng := randx.New(33)
	for i := 0; i < 12; i++ {
		lo := rng.Uniform(0, 40) // left half only
		g := query.NewRegion(tb.Schema())
		g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: lo + 8})
		sn := mk(g)
		upd := engine.RunToCompletion([]*query.Snippet{sn})
		if upd.Valid[0] {
			v.Record(sn, upd.Estimates[0])
		}
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	return tb, engine, v, mk
}

func TestRankPrefersUncoveredRegions(t *testing.T) {
	tb, _, v, mk := fixture(t)
	xcol, _ := tb.Schema().Lookup("x")
	cands := Grid1D(tb, xcol, 10, mk)
	if len(cands) < 10 {
		t.Fatalf("grid too small: %d", len(cands))
	}
	ranked := Rank(v, cands)
	// The most uncertain candidates must lie in the uncovered right half.
	for i := 0; i < 3; i++ {
		r := ranked[i].Snippet.Region.NumRangeOf(xcol, tb)
		if r.Lo < 45 {
			t.Fatalf("top-%d candidate covers trained region: [%v,%v]", i, r.Lo, r.Hi)
		}
	}
	// And the least uncertain in the covered left half.
	last := ranked[len(ranked)-1].Snippet.Region.NumRangeOf(xcol, tb)
	if last.Lo > 40 {
		t.Fatalf("least uncertain candidate not in covered region: [%v,%v]", last.Lo, last.Hi)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Gamma2 > ranked[i-1].Gamma2+1e-12 {
			t.Fatal("ranking not sorted")
		}
	}
}

func TestCampaignReducesUncertainty(t *testing.T) {
	tb, engine, v, mk := fixture(t)
	xcol, _ := tb.Schema().Lookup("x")
	cands := Grid1D(tb, xcol, 10, mk)
	probes := Grid1D(tb, xcol, 5, mk) // evaluation set

	before := MeanUncertainty(v, probes)
	steps, err := Campaign(v, engine, cands, Config{Rounds: 6, Batches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 {
		t.Fatalf("steps=%d", len(steps))
	}
	after := MeanUncertainty(v, probes)
	if after >= before*0.7 {
		t.Fatalf("campaign did not reduce uncertainty: %v -> %v", before, after)
	}
	// Steps must have probed distinct snippets, in decreasing-variance
	// order of selection (each step's before-variance reflects the model
	// at selection time, so only check distinctness).
	seen := map[string]bool{}
	for _, s := range steps {
		key := s.Snippet.Key()
		if seen[key] {
			t.Fatalf("candidate probed twice: %s", key)
		}
		seen[key] = true
		if s.SimTime <= 0 {
			t.Fatal("step missing simulated time")
		}
	}
}

func TestCampaignBeatsRandomProbing(t *testing.T) {
	// Greedy max-variance probing must reduce evaluation-set uncertainty at
	// least as much as spending the same budget on arbitrary candidates.
	tb, engine, vActive, mk := fixture(t)
	_, _, vRandom, _ := fixture(t)
	xcol, _ := tb.Schema().Lookup("x")
	cands := Grid1D(tb, xcol, 10, mk)
	probes := Grid1D(tb, xcol, 5, mk)

	if _, err := Campaign(vActive, engine, cands, Config{Rounds: 4, Batches: 2}); err != nil {
		t.Fatal(err)
	}
	// Random arm: probe the first four candidates (all in the already-
	// covered left half — the degenerate choice active learning avoids).
	for _, sn := range cands[:4] {
		view := engine.Acquire()
		_, end := view.Sample.BatchBounds(1)
		upd := view.EvalPrefix([]*query.Snippet{sn}, end)
		if upd.Valid[0] {
			vRandom.Record(sn, upd.Estimates[0])
		}
	}
	act := MeanUncertainty(vActive, probes)
	rnd := MeanUncertainty(vRandom, probes)
	if act >= rnd {
		t.Fatalf("active %v not better than naive %v", act, rnd)
	}
}

func TestCampaignEarlyStop(t *testing.T) {
	tb, engine, v, mk := fixture(t)
	xcol, _ := tb.Schema().Lookup("x")
	cands := Grid1D(tb, xcol, 10, mk)
	steps, err := Campaign(v, engine, cands, Config{Rounds: 50, Batches: 1, MinGamma2: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 || len(steps) >= 50 {
		t.Fatalf("early stop did not engage sensibly: %d steps", len(steps))
	}
	// After stopping, every remaining candidate is below the threshold.
	for _, s := range Rank(v, cands) {
		if s.Gamma2 > 1.0+1e-9 {
			t.Fatalf("candidate above threshold after campaign: %v", s.Gamma2)
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	_, engine, v, _ := fixture(t)
	if _, err := Campaign(v, engine, nil, Config{}); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}

func TestGrid1D(t *testing.T) {
	tb, _, _, mk := fixture(t)
	xcol, _ := tb.Schema().Lookup("x")
	cands := Grid1D(tb, xcol, 20, mk)
	// Domain 100, width 20, stride 10 → windows starting 0,10,...,80 → 9.
	if len(cands) != 9 {
		t.Fatalf("grid size=%d", len(cands))
	}
	first := cands[0].Region.NumRangeOf(xcol, tb)
	lastR := cands[len(cands)-1].Region.NumRangeOf(xcol, tb)
	if first.Lo > 1 || math.Abs(lastR.Hi-100) > 1 {
		t.Fatalf("grid coverage wrong: first=%+v last=%+v", first, lastR)
	}
	if Grid1D(tb, xcol, 0, mk) != nil {
		t.Fatal("zero width should return nil")
	}
}
