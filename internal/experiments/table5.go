package experiments

import (
	"fmt"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
)

func init() { register("table5", Table5Overhead) }

// Table5Overhead reproduces Table 5: Verdict's runtime overhead (inference
// plus synopsis maintenance, measured in wall-clock time) relative to the
// simulated AQP latency, for cached and SSD tiers. It also reports the
// query-synopsis memory footprint of §8.5.
func Table5Overhead(o Options) (*Report, error) {
	r := &Report{
		ID:    "table5",
		Title: "Runtime overhead of Verdict",
		Columns: []string{"Tier", "NoLearn latency", "Verdict latency",
			"Overhead", "Overhead %"},
		Timing: []string{"Verdict latency", "Overhead", "Overhead %"},
	}
	_, _, train, test := sizing(o)
	for _, cached := range []bool{true, false} {
		f, err := buildFixture(o, table4Config{dataset: "customer1", cached: cached})
		if err != nil {
			return nil, err
		}
		v := core.New(f.table, core.Config{})
		if err := trainOn(v, f.engine, f.sqls[:train]); err != nil {
			return nil, err
		}
		var sim time.Duration
		var overhead time.Duration
		n := 0
		for _, sql := range f.sqls[train:min(train+test, len(f.sqls))] {
			snips, err := snippetsOf(f.engine, sql, v.Config().Nmax)
			if err != nil {
				return nil, err
			}
			upd := f.engine.RunToCompletion(snips)
			t0 := time.Now()
			for i, sn := range snips {
				raw := aqp.Sanitize(upd.Estimates[i])
				_ = v.Infer(sn, raw)
				if upd.Valid[i] {
					v.Record(sn, raw)
				}
			}
			overhead += time.Since(t0)
			sim += upd.SimTime
			n++
		}
		if n == 0 {
			continue
		}
		simAvg := sim / time.Duration(n)
		ovAvg := overhead / time.Duration(n)
		r.Add(tier(cached), simAvg.Round(time.Millisecond).String(),
			(simAvg + ovAvg).Round(time.Millisecond).String(),
			ovAvg.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.4f%%", 100*float64(ovAvg)/float64(simAvg)))
		if cached {
			r.Note("synopsis footprint after %d queries: %.1f KB (%d snippets)",
				train+n, float64(v.FootprintBytes())/1024, v.SnippetCount())
		}
	}
	r.Note("paper: ~10 ms overhead, 0.48%% of cached and 0.02%% of SSD latency; expect sub-millisecond absolute overhead here (smaller synopsis), with the same cached > SSD ordering of relative overhead")
	return r, nil
}
