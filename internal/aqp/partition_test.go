package aqp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// partitionedLayout is the stratified layout under test, parameterized only
// by the partition count.
func partitionedLayout(tb *storage.Table, parts int) RebuildOptions {
	col, ok := tb.Schema().Lookup("week")
	if !ok {
		panic("buildTable lost its week column")
	}
	return RebuildOptions{ClusterColumn: -1, Partitions: parts, StratumColumn: col}
}

// groupedSpecFor compiles the one-pass grouped spec for a GROUP BY query.
func groupedSpecFor(t *testing.T, tb *storage.Table, sql string) *query.GroupedSpec {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	col, ok := tb.Schema().Lookup(stmt.GroupBy[0].Name)
	if !ok {
		t.Fatalf("unknown group column %s", stmt.GroupBy[0].Name)
	}
	spec := query.GroupedSpecOf(stmt, tb, []int{col})
	if spec == nil {
		t.Fatalf("statement %q is outside the foldable grouped shape", sql)
	}
	return spec
}

// invarianceRecord is everything one partition count produced, in a fixed
// order so records compare cell-for-cell across counts.
type invarianceRecord struct {
	oneShot  []query.ScalarEstimate
	groups   [][]query.GroupValue
	grouped  []query.ScalarEstimate
	prog     []Increment
	rebuilt  []query.ScalarEstimate
	replayed []query.ScalarEstimate
	carried  [][]query.ScalarEstimate // carried runs: flat then grouped, twice per view
}

func estimatesOf(upd BatchUpdate) []query.ScalarEstimate {
	return append([]query.ScalarEstimate(nil), upd.Estimates...)
}

func requireEstimatesEqual(t *testing.T, label string, got, want []query.ScalarEstimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: estimate %d is %+v, want %+v (partition-count invariance broken)",
				label, i, got[i], want[i])
		}
	}
}

// runPartitioned drives one fresh engine laid out at the given partition
// count through every execution mode: one-shot, one-pass grouped,
// progressive increments (each also checked against its own serial
// EvalPrefix replay), carried folds across streamed appends (flat and
// grouped, each repeated on the same view), a partitioned rebuild, and a
// ViewAtGen replay of the pre-rebuild generation. Everything recorded is a
// pure function of the deterministic inputs, so records must match
// bit-for-bit across counts.
func runPartitioned(t *testing.T, parts int) *invarianceRecord {
	t.Helper()
	tb := buildTable(t, 30000)
	sample, err := BuildSample(tb, 0.5, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	if err := e.SetSampleLayout(partitionedLayout(tb, parts)); err != nil {
		t.Fatal(err)
	}
	snips := progressiveSnips(t, tb)
	spec := groupedSpecFor(t, tb, "SELECT AVG(val), COUNT(*) FROM t WHERE week < 70 GROUP BY region")
	rec := &invarianceRecord{}

	view := e.Acquire()
	if got := len(e.PartitionStats()); got != parts {
		t.Fatalf("PartitionStats reports %d partitions, want %d", got, parts)
	}

	// One-shot run to completion.
	rec.oneShot = estimatesOf(view.RunToCompletion(snips))

	// One-pass grouped execution: group list and estimates both travel.
	gr := view.GroupedRunToCompletion(spec, 0)
	rec.groups = gr.Groups
	rec.grouped = estimatesOf(gr.Update)

	// Progressive increments, each audited against a fresh serial prefix
	// replay of the same view before being recorded.
	ps := view.Progressive(snips)
	for _, prefix := range PrefixSchedule(view.SampleRows, 512) {
		inc := ps.Step(prefix)
		fresh := e.ViewAtGen(view.SampleGen, view.BaseRows, view.SampleRows).EvalPrefix(snips, prefix)
		requireIncrementEqual(t, "parts="+itoa(parts)+" prefix="+itoa(prefix), inc, fresh)
		rec.prog = append(rec.prog, inc)
	}

	// Carried folds across streamed appends: complete batches fold into
	// carried state, the partial tail into clones — all span-aware. Asked
	// the same plan twice per view, as the scan memo asks it, the second Run
	// answers without scanning; every answer is the one-shot one.
	cf, gcf := NewCarriedFold(false), NewCarriedFold(false)
	carry := func(v *View, first FoldOutcome, delta int) {
		label := "parts=" + itoa(parts) + " carried"
		for _, want := range []FoldOutcome{first, FoldReused} {
			fr, gr := cf.Run(v, snips, nil, 0), gcf.Run(v, nil, spec, 0)
			requireOutcome(t, label+" flat", fr, v, want, delta+v.Sample.BatchSize)
			requireOutcome(t, label+" grouped", gr, v, want, delta+v.Sample.BatchSize)
			requireEstimatesEqual(t, label+" flat", estimatesOf(fr.Update), estimatesOf(v.RunToCompletion(snips)))
			requireEstimatesEqual(t, label+" grouped", estimatesOf(gr.Update), estimatesOf(v.GroupedRunToCompletion(spec, 0).Update))
			rec.carried = append(rec.carried, estimatesOf(fr.Update), estimatesOf(gr.Update))
		}
	}
	carry(view, FoldFull, 0)
	for i := 0; i < 2; i++ {
		d := appendSampled(t, e, driftedBatch(t, 1500, 80, 100, int64(40+i)), int64(90+i))
		carry(e.Acquire(), FoldExtended, d)
	}

	// A rebuild under the same layout: per-stratum generation swaps under
	// one sample generation, tail rows re-stratified in.
	preGen, preBase, preRows := view.SampleGen, view.BaseRows, view.SampleRows
	grown := e.Acquire()
	grownEst := estimatesOf(grown.RunToCompletion(snips))
	if _, err := e.RebuildSample(4242, partitionedLayout(tb, parts)); err != nil {
		t.Fatal(err)
	}
	rec.rebuilt = estimatesOf(e.Acquire().RunToCompletion(snips))
	carry(e.Acquire(), FoldFull, 0)
	requireEstimatesEqual(t, "parts="+itoa(parts)+" carried after rebuild", rec.carried[len(rec.carried)-2], rec.rebuilt)

	// Serial replay across the generation swap: both the pre-rebuild
	// grown state and the original boot view must reproduce exactly.
	rv := e.ViewAtGen(grown.SampleGen, grown.BaseRows, grown.SampleRows)
	if rv == nil {
		t.Fatalf("parts=%d: ViewAtGen lost the grown pre-rebuild state", parts)
	}
	requireEstimatesEqual(t, "parts="+itoa(parts)+" grown replay",
		estimatesOf(rv.RunToCompletion(snips)), grownEst)
	rv = e.ViewAtGen(preGen, preBase, preRows)
	if rv == nil {
		t.Fatalf("parts=%d: ViewAtGen lost the boot prefix", parts)
	}
	rec.replayed = estimatesOf(rv.RunToCompletion(snips))
	return rec
}

// TestPartitionCountInvariance is the tentpole property: the partition
// count is a pure layout knob. The same seeded workload — one-shot,
// grouped, progressive, carried-across-appends, rebuild and replay — must
// produce bit-identical answers for every partition count, because the scan
// granule is the fixed micro-stratum decomposition, never the partition.
func TestPartitionCountInvariance(t *testing.T) {
	want := runPartitioned(t, 1)
	if len(want.groups) == 0 || len(want.prog) < 3 || len(want.carried) != 16 {
		t.Fatalf("reference run shape: %d groups, %d increments, %d carried answers",
			len(want.groups), len(want.prog), len(want.carried))
	}
	for _, parts := range []int{2, 4, 7} {
		got := runPartitioned(t, parts)
		label := "parts=" + itoa(parts)
		requireEstimatesEqual(t, label+" one-shot", got.oneShot, want.oneShot)
		if len(got.groups) != len(want.groups) {
			t.Fatalf("%s: %d groups vs %d", label, len(got.groups), len(want.groups))
		}
		for i := range want.groups {
			if len(got.groups[i]) != len(want.groups[i]) {
				t.Fatalf("%s: group %d arity", label, i)
			}
			for j := range want.groups[i] {
				if got.groups[i][j] != want.groups[i][j] {
					t.Fatalf("%s: group %d value %d: %+v vs %+v",
						label, i, j, got.groups[i][j], want.groups[i][j])
				}
			}
		}
		requireEstimatesEqual(t, label+" grouped", got.grouped, want.grouped)
		if len(got.prog) != len(want.prog) {
			t.Fatalf("%s: %d increments vs %d", label, len(got.prog), len(want.prog))
		}
		for i := range want.prog {
			requireIncrementEqual(t, label+" increment "+itoa(i), got.prog[i], want.prog[i])
		}
		for i := range want.carried {
			requireEstimatesEqual(t, label+" carried "+itoa(i), got.carried[i], want.carried[i])
		}
		requireEstimatesEqual(t, label+" rebuilt", got.rebuilt, want.rebuilt)
		requireEstimatesEqual(t, label+" replayed", got.replayed, want.replayed)
	}
}

// globalOrder reconstructs the interleaved global row order of a
// partitioned sample as (stratum, within-stratum position) pairs and
// returns the stratum-column value sequence — globally and per partition.
func globalOrder(ps *storage.PartitionedSample, colName string) (global []float64, perPart [][]float64) {
	perPart = make([][]float64, ps.NumPartitions())
	cols := make([][]float64, ps.NumStrata())
	for s := 0; s < ps.NumStrata(); s++ {
		tbl := ps.Stratum(s)
		col, _ := tbl.Schema().Lookup(colName)
		cols[s] = tbl.NumericCol(col)
	}
	taken := make([]int, ps.NumStrata())
	for i := 0; i < ps.Rows(); i++ {
		s := ps.StratumAt(i)
		v := cols[s][taken[s]]
		taken[s]++
		global = append(global, v)
		p := ps.PartitionOf(s)
		perPart[p] = append(perPart[p], v)
	}
	return global, perPart
}

// ksCritical is the 95% two-sample Kolmogorov–Smirnov critical value.
func ksCritical(n1, n2 int) float64 {
	a, b := float64(n1), float64(n2)
	return 1.36 * math.Sqrt((a+b)/(a*b))
}

// TestStratifiedPrefixUniformityKS: after drifted appends pile the tail and
// a stratified rebuild re-lays the sample out, every global prefix AND
// every per-partition prefix must be statistically indistinguishable from
// its full distribution (KS below the 95% critical value) — the row-level
// prefix-uniformity that block-clustered layouts give up — while zone maps
// stay tight on the stratum column.
func TestStratifiedPrefixUniformityKS(t *testing.T) {
	tb := buildTable(t, 20000)
	sample, err := BuildSample(tb, 0.4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	for i := 0; i < 5; i++ {
		if _, err := e.Append(driftedBatch(t, 1200, 80, 100, int64(60+i)), int64(600+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RebuildSample(99, partitionedLayout(tb, 4)); err != nil {
		t.Fatal(err)
	}
	parts := e.Sample().Parts
	if parts == nil || parts.NumPartitions() != 4 {
		t.Fatal("rebuild did not produce the 4-partition layout")
	}
	if parts.Rows() != e.Sample().Rows() {
		t.Fatalf("tail not folded in: %d partitioned of %d", parts.Rows(), e.Sample().Rows())
	}

	global, perPart := globalOrder(parts, "week")
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		n := int(float64(len(global)) * frac)
		if d, crit := ksDistance(global[:n], global), ksCritical(n, len(global)); d > crit {
			t.Fatalf("global prefix %.0f%%: KS=%.4f exceeds critical %.4f", frac*100, d, crit)
		}
		for p, seq := range perPart {
			np := int(float64(len(seq)) * frac)
			if np == 0 {
				t.Fatalf("partition %d empty at frac %v", p, frac)
			}
			if d, crit := ksDistance(seq[:np], seq), ksCritical(np, len(seq)); d > crit {
				t.Fatalf("partition %d prefix %.0f%%: KS=%.4f exceeds critical %.4f", p, frac*100, d, crit)
			}
		}
	}

	// Tight zone maps at the same time: each partition's blocks span a
	// narrow slice of the week domain (56 strata over [0,100) leave mean
	// block width far below the shuffled layout's ~full domain).
	for _, st := range e.PartitionStats() {
		if st.ZoneSelectivity > 0.25 {
			t.Fatalf("partition %d zone selectivity %.3f: strata not value-clustered", st.Partition, st.ZoneSelectivity)
		}
	}
}

// TestStratifiedRebuildRoundRobin: with no stratum column the layout still
// partitions (round-robin strata) and stays answer-consistent with the
// keyed layout's row multiset.
func TestStratifiedRebuildRoundRobin(t *testing.T) {
	tb := buildTable(t, 10000)
	sample, err := BuildSample(tb, 0.4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	beforeRows := e.Sample().Rows()
	if _, err := e.RebuildSample(7, RebuildOptions{ClusterColumn: -1, Partitions: 4, StratumColumn: -1}); err != nil {
		t.Fatal(err)
	}
	s := e.Sample()
	if s.Parts == nil || s.Parts.NumPartitions() != 4 || s.Rows() != beforeRows {
		t.Fatalf("round-robin rebuild: parts=%v rows=%d want %d", s.Parts, s.Rows(), beforeRows)
	}
	// Round-robin strata carry no value locality; selectivity ~1.
	for _, st := range e.PartitionStats() {
		if st.ZoneSelectivity < 0.5 {
			t.Fatalf("partition %d selectivity %.3f: round-robin should not cluster", st.Partition, st.ZoneSelectivity)
		}
	}
}

// TestRebuildLayoutValidation pins the typed-error contract: layouts naming
// a categorical or out-of-range column are rejected with ErrBadLayout
// before any state moves (this used to panic inside the cluster sort).
func TestRebuildLayoutValidation(t *testing.T) {
	tb := buildTable(t, 4000)
	sample, err := BuildSample(tb, 0.5, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	regionCol, _ := tb.Schema().Lookup("region")
	cases := []struct {
		name string
		opts RebuildOptions
	}{
		{"categorical cluster column", RebuildOptions{ClusterColumn: regionCol, StratumColumn: -1}},
		{"out-of-range cluster column", RebuildOptions{ClusterColumn: 99, StratumColumn: -1}},
		{"categorical stratum column", RebuildOptions{ClusterColumn: -1, Partitions: 2, StratumColumn: regionCol}},
		{"out-of-range stratum column", RebuildOptions{ClusterColumn: -1, Partitions: 2, StratumColumn: 99}},
	}
	for _, c := range cases {
		gen, err := e.RebuildSample(11, c.opts)
		if !isBadLayout(err) {
			t.Fatalf("%s: RebuildSample err = %v, want ErrBadLayout", c.name, err)
		}
		if gen != 0 || e.Acquire().SampleGen != 0 {
			t.Fatalf("%s: rejected rebuild moved the generation to %d", c.name, gen)
		}
		if err := e.SetSampleLayout(c.opts); !isBadLayout(err) {
			t.Fatalf("%s: SetSampleLayout err = %v, want ErrBadLayout", c.name, err)
		}
	}
	// A cluster layout ignores a bad stratum column and vice versa: only
	// the column the layout actually uses is validated.
	weekCol, _ := tb.Schema().Lookup("week")
	if _, err := e.RebuildSample(12, RebuildOptions{ClusterColumn: weekCol, StratumColumn: regionCol}); err != nil {
		t.Fatalf("cluster layout rejected an unused stratum column: %v", err)
	}
	if _, err := e.RebuildSample(13, RebuildOptions{ClusterColumn: regionCol, Partitions: 2, StratumColumn: weekCol}); err != nil {
		t.Fatalf("partitioned layout rejected an unused cluster column: %v", err)
	}
}

func isBadLayout(err error) bool {
	var le *LayoutError
	return errors.Is(err, ErrBadLayout) && errors.As(err, &le)
}

// BenchmarkPartitionedScan measures a selective one-shot scan over the
// stratified 4-partition layout — the zone-map pruning case partitionbench
// quantifies across layouts.
func BenchmarkPartitionedScan(b *testing.B) {
	tb := buildTable(b, 100000)
	sample, err := BuildSample(tb, 0.5, 0, 11)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(tb, sample, CachedCost)
	col, _ := tb.Schema().Lookup("week")
	if err := e.SetSampleLayout(RebuildOptions{ClusterColumn: -1, Partitions: 4, StratumColumn: col}); err != nil {
		b.Fatal(err)
	}
	snips := []*query.Snippet{snippetFor(b, tb, "SELECT AVG(val) FROM t WHERE week >= 42 AND week < 47")}
	view := e.Acquire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.RunToCompletion(snips)
	}
}
