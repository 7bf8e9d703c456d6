package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fixture bundles a dataset, its engine and a query workload.
type fixture struct {
	table  *storage.Table
	engine *aqp.Engine
	sqls   []string
	// label names the fixture in report rows ("Customer1", "TPC-H").
	label string
}

// sizing returns (rows, sampleFraction, trainQueries, testQueries) per scale.
func sizing(o Options) (int, float64, int, int) {
	if o.Scale == Full {
		return 120000, 0.25, 80, 80
	}
	return 30000, 0.3, 45, 25
}

// customer1Fixture builds the Customer1-like fixture under a cost model.
func customer1Fixture(o Options, cost aqp.CostModel) (*fixture, error) {
	rows, frac, train, test := sizing(o)
	tb, err := workload.GenerateCustomer1(rows, o.Seed+11)
	if err != nil {
		return nil, err
	}
	sample, err := aqp.BuildSample(tb, frac, 0, o.Seed+12)
	if err != nil {
		return nil, err
	}
	spec := workload.DefaultCustomer1TraceSpec()
	spec.Queries = (train + test) * 2 // headroom: we keep only supported
	spec.Seed = o.Seed + 13
	var sqls []string
	for _, e := range workload.GenerateCustomer1Trace(spec) {
		if e.Supported && len(sqls) < train+test {
			sqls = append(sqls, e.SQL)
		}
	}
	if len(sqls) < train+test {
		return nil, fmt.Errorf("experiments: trace too small: %d", len(sqls))
	}
	return &fixture{table: tb, engine: aqp.NewEngine(tb, sample, cost), sqls: sqls, label: "Customer1"}, nil
}

// tpchFixture builds the TPC-H-like fixture.
func tpchFixture(o Options, cost aqp.CostModel) (*fixture, error) {
	rows, frac, train, test := sizing(o)
	tb, err := workload.GenerateTPCH(rows, o.Seed+21)
	if err != nil {
		return nil, err
	}
	sample, err := aqp.BuildSample(tb, frac, 0, o.Seed+22)
	if err != nil {
		return nil, err
	}
	sqls := workload.TPCHWorkload(train+test, o.Seed+23)
	return &fixture{table: tb, engine: aqp.NewEngine(tb, sample, cost), sqls: sqls, label: "TPC-H"}, nil
}

// costFor returns the cost model of a tier, with the virtual-row factor
// scaled so full-sample scans land in the paper's latency ranges (seconds
// cached, minutes on SSD) regardless of the local table size.
func costFor(cached bool, sampleRows int) aqp.CostModel {
	if sampleRows < 1 {
		sampleRows = 1
	}
	if cached {
		// Target ≈ 6 s full-sample scan.
		c := aqp.CachedCost
		return c.Scaled(6 * c.RowsPerSecond / float64(sampleRows))
	}
	// Target ≈ 180 s full-sample scan.
	c := aqp.SSDCost
	return c.Scaled(180 * c.RowsPerSecond / float64(sampleRows))
}

// snippetsOf parses, checks and decomposes one SQL query against the
// fixture's engine, returning the flattened snippet list.
func snippetsOf(engine *aqp.Engine, sql string, nmax int) ([]*query.Snippet, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sup := query.Check(stmt); !sup.OK {
		return nil, fmt.Errorf("experiments: unsupported query %q: %v", sql, sup.Reasons)
	}
	table := engine.Base()
	var groupCols []int
	for _, g := range stmt.GroupBy {
		col, ok := table.Schema().Lookup(g.Name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown group column %s", g.Name)
		}
		groupCols = append(groupCols, col)
	}
	region, err := query.BindRegion(stmt.Where, table)
	if err != nil {
		return nil, err
	}
	groups, err := engine.GroupRows(groupCols, region)
	if err != nil {
		return nil, err
	}
	decs, err := query.Decompose(stmt, table, groups, nmax)
	if err != nil {
		return nil, err
	}
	var snips []*query.Snippet
	for _, d := range decs {
		snips = append(snips, d.Snippets...)
	}
	return snips, nil
}

// trainOn processes queries to completion, recording raw answers into the
// synopsis, then runs the offline training pass (Algorithm 1).
func trainOn(v *core.Verdict, engine *aqp.Engine, sqls []string) error {
	for _, sql := range sqls {
		snips, err := snippetsOf(engine, sql, v.Config().Nmax)
		if err != nil {
			return err
		}
		upd := engine.RunToCompletion(snips)
		for i, sn := range snips {
			if upd.Valid[i] {
				v.Record(sn, upd.Estimates[i])
			}
		}
	}
	return v.Train()
}

// curvePoint is one online-aggregation step averaged over a query's
// snippets: relative error bounds and relative actual errors for the raw
// (NoLearn) and improved (Verdict) answers.
type curvePoint struct {
	simTime  time.Duration
	rawBound float64
	impBound float64
	rawErr   float64
	impErr   float64
	n        int
}

// minExactFreq skips FREQ snippets whose exact fractions are too small for
// meaningful relative errors.
const minExactFreq = 1e-3

// runOnlineQuery produces the per-batch comparison curve for one query by
// stepping the served progressive scan to every batch end and inferring
// each increment against one pinned InferSnapshot, as a /query/stream does.
// If record is true, the final raw answers enter the synopsis afterwards
// (Algorithm 2 ordering: infer first, then record).
func runOnlineQuery(v *core.Verdict, engine *aqp.Engine, sql string, record bool) ([]curvePoint, error) {
	snips, err := snippetsOf(engine, sql, v.Config().Nmax)
	if err != nil {
		return nil, err
	}
	view := engine.Acquire()
	exact := make([]float64, len(snips))
	keep := make([]bool, len(snips))
	for i, sn := range snips {
		exact[i] = view.Exact(sn)
		switch sn.Kind {
		case query.FreqAgg:
			keep[i] = exact[i] >= minExactFreq
		default:
			keep[i] = math.Abs(exact[i]) > 1e-9
		}
	}
	alpha := core.Alpha95

	snap := v.SnapshotFor(snips)
	ps := view.Progressive(snips)
	var pts []curvePoint
	var last aqp.Increment
	for b := 0; b < view.Sample.Batches(); b++ {
		_, end := view.Sample.BatchBounds(b)
		u := ps.Step(end)
		pt := curvePoint{simTime: u.SimTime}
		for i, sn := range snips {
			if !keep[i] || !u.Valid[i] {
				continue
			}
			raw := aqp.Sanitize(u.Estimates[i])
			inf := snap.Infer(sn, raw)
			den := math.Abs(exact[i])
			pt.rawBound += alpha * raw.StdErr / den
			pt.impBound += alpha * inf.Err / den
			pt.rawErr += math.Abs(raw.Value-exact[i]) / den
			pt.impErr += math.Abs(inf.Answer-exact[i]) / den
			pt.n++
		}
		if pt.n > 0 {
			pt.rawBound /= float64(pt.n)
			pt.impBound /= float64(pt.n)
			pt.rawErr /= float64(pt.n)
			pt.impErr /= float64(pt.n)
			pts = append(pts, pt)
		}
		last = u
	}
	if record {
		for i, sn := range snips {
			if last.Valid != nil && last.Valid[i] {
				v.Record(sn, aqp.Sanitize(last.Estimates[i]))
			}
		}
	}
	return pts, nil
}

// runComparison trains on the first half of a fixture's workload and
// returns the per-query curves of the second half (§8.3's protocol).
func runComparison(f *fixture, cfg core.Config, train, test int) ([][]curvePoint, *core.Verdict, error) {
	v := core.New(f.table, cfg)
	if train > len(f.sqls) {
		train = len(f.sqls)
	}
	if err := trainOn(v, f.engine, f.sqls[:train]); err != nil {
		return nil, nil, err
	}
	var curves [][]curvePoint
	for _, sql := range f.sqls[train:min(train+test, len(f.sqls))] {
		pts, err := runOnlineQuery(v, f.engine, sql, true)
		if err != nil {
			return nil, nil, err
		}
		if len(pts) > 0 {
			curves = append(curves, pts)
		}
	}
	return curves, v, nil
}

// timeToBound returns the simulated time at which a curve first meets the
// target relative bound, and whether it ever did (censored at the final
// point otherwise).
func timeToBound(pts []curvePoint, target float64, improved bool) (time.Duration, bool) {
	for _, p := range pts {
		b := p.rawBound
		if improved {
			b = p.impBound
		}
		if b <= target {
			return p.simTime, true
		}
	}
	if len(pts) == 0 {
		return 0, false
	}
	return pts[len(pts)-1].simTime, false
}

// boundWithinBudget returns the best (lowest) relative bound achieved within
// the simulated time budget; falls back to the first point if none fit.
func boundWithinBudget(pts []curvePoint, budget time.Duration, improved bool) float64 {
	best := math.Inf(1)
	for _, p := range pts {
		if p.simTime > budget {
			break
		}
		b := p.rawBound
		if improved {
			b = p.impBound
		}
		if b < best {
			best = b
		}
	}
	if math.IsInf(best, 1) && len(pts) > 0 {
		if improved {
			return pts[0].impBound
		}
		return pts[0].rawBound
	}
	return best
}

// reduction converts (baseline, improved) into a reduction fraction.
func reduction(base, improved float64) float64 {
	if base <= 0 {
		return 0
	}
	r := 1 - improved/base
	if r < 0 {
		return 0
	}
	return r
}
