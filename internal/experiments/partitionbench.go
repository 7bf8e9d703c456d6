package experiments

import (
	"fmt"
	"time"

	"repro/internal/aqp"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

func init() { register("partitionbench", PartitionBench) }

// PartitionBench quantifies what the stratified partitioned layout buys on a
// selective scan: zone-map pruning like a clustered layout, without giving
// up row-level prefix-uniformity. One selective snippet (~5% of the x
// domain) runs over five layouts of the same sample — block-clustered
// (flat), shuffled (flat), and stratified with K ∈ {1, 4, 8} partitions —
// measuring scan time and the fraction of blocks zone maps prove empty.
// Expectation: shuffled prunes ~0% (every block spans the whole domain),
// clustered and stratified prune the vast majority, and the stratified
// numbers are invariant in K (the stratum, not the partition, is the zone
// granule). Each case's ns/op and prune fraction land in Report.Metrics,
// which verdict-bench -json persists (BENCH_partition.json) for the CI perf
// trajectory.
func PartitionBench(o Options) (*Report, error) {
	rows := 200_000
	if o.Scale == Full {
		rows = 1_000_000
	}
	rep := &Report{
		ID:      "partitionbench",
		Title:   "Sample layouts under a selective scan: clustered vs shuffled vs stratified",
		Columns: []string{"layout", "partitions", "rows", "scan time", "blocks pruned", "Mrows/s"},
	}

	type layoutCase struct {
		key   string
		parts int // 0 = flat
		opts  func(xcol int) aqp.RebuildOptions
	}
	cases := []layoutCase{
		{"clustered", 0, func(xcol int) aqp.RebuildOptions {
			return aqp.RebuildOptions{ClusterColumn: xcol, StratumColumn: -1}
		}},
		{"shuffled", 0, func(int) aqp.RebuildOptions { return aqp.DefaultRebuildOptions() }},
		{"stratified-k1", 1, nil},
		{"stratified-k4", 4, nil},
		{"stratified-k8", 8, nil},
	}
	for _, c := range cases {
		tb, sn, err := selectiveFixture(rows, o.Seed)
		if err != nil {
			return nil, err
		}
		xcol, _ := tb.Schema().Lookup("x")
		sample := &aqp.Sample{Data: tb, Fraction: 1, BatchSize: tb.Rows(), BaseRows: tb.Rows()}
		engine := aqp.NewEngine(tb, sample, aqp.CachedCost)
		opts := aqp.RebuildOptions{ClusterColumn: -1, Partitions: c.parts, StratumColumn: xcol}
		if c.opts != nil {
			opts = c.opts(xcol)
		}
		if _, err := engine.RebuildSample(o.Seed+17, opts); err != nil {
			return nil, err
		}

		engine.RunToCompletion([]*query.Snippet{sn}) // warm-up
		const reps = 3
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			engine.RunToCompletion([]*query.Snippet{sn})
		}
		el := time.Since(t0) / reps

		empty, total := pruneCensus(engine.Sample(), sn.Region)
		frac := 0.0
		if total > 0 {
			frac = float64(empty) / float64(total)
		}
		rep.Add(c.key, fmt.Sprintf("%d", c.parts), fmt.Sprintf("%d", rows),
			el.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%% (%d/%d)", frac*100, empty, total),
			fmtF(float64(rows)/el.Seconds()/1e6))
		rep.Metric(c.key+"/ns", float64(el.Nanoseconds()))
		rep.Metric(c.key+"/prune_fraction", frac)
	}
	rep.Note("selective predicate x in [42,47) over a [0,100) domain; blocks pruned = zone maps prove the block empty; stratified prune fractions must not move with the partition count")
	return rep, nil
}

// pruneCensus classifies every block of the sample's physical layout
// against the region's zone maps and counts the provably-empty ones. For a
// partitioned sample the blocks are the per-stratum blocks plus the tail's;
// for a flat sample they are the single table's.
func pruneCensus(s *aqp.Sample, region *query.Region) (empty, total int) {
	var tables []*storage.Table
	if s.Parts != nil {
		tables = s.Parts.StrataTables()
	}
	tables = append(tables, s.Data)
	for _, t := range tables {
		for b := 0; b < t.NumBlocks(); b++ {
			total++
			if region.PruneBlock(t, b) == query.BlockEmpty {
				empty++
			}
		}
	}
	return empty, total
}

// selectiveFixture builds an AVG snippet with a selective numeric predicate
// over a synthetic 3-column relation whose rows are shuffled (the layouts
// under test re-lay the sample out).
func selectiveFixture(rows int, seed int64) (*storage.Table, *query.Snippet, error) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "grp", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "v", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("selective", schema)
	rng := randx.New(seed + 41)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(rows, func(i, j int) { order[i], order[j] = order[j], order[i] })
	groups := []string{"a", "b", "c", "d"}
	for _, i := range order {
		x := float64(i) / float64(rows) * 100 // domain [0, 100)
		if err := tb.AppendRow([]storage.Value{
			storage.Num(x),
			storage.Str(groups[i%len(groups)]),
			storage.Num(10 + x + rng.Normal(0, 1)),
		}); err != nil {
			return nil, nil, err
		}
	}
	xcol, _ := schema.Lookup("x")
	vcol, _ := schema.Lookup("v")
	g := query.NewRegion(schema)
	g.ConstrainNum(xcol, query.NumRange{Lo: 42, Hi: 47}) // ~5% selectivity
	sn := &query.Snippet{
		Kind:       query.AvgAgg,
		MeasureKey: "v",
		Measure: func(t *storage.Table, row int) float64 {
			return t.NumAt(row, vcol)
		},
		Region: g,
		Table:  tb,
	}
	return tb, sn, nil
}
