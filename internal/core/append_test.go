package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/aqp"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// driftStep is one operation of a carried-drift sequence. An append's
// carried flag says whether the models' old-sample moments should survive
// from the previous append (so only the rows sampled since are bucketed)
// or start over.
type driftStep struct {
	label   string
	batch   func(t *testing.T) *storage.Table
	carried bool
	rebuild bool
	reload  bool
}

// TestCarriedDriftEqualsFullPass checks the append path's drift estimate
// against its definition: after every System.Append, each AVG model's
// Drift must equal, bit for bit, EstimateDrift over the materialized
// pre-append sample and the batch, and its entries' θ and β must equal
// Lemma 3 applied with that Drift to the model as it stood before the
// append. The sequences cover flat and stratified samples, a one-row
// append, a rebuild, an append that widens the undeclared bucketing
// domain, a Save/Load of the synopsis, and a schema with no usable numeric
// dimension (random bucket assignment). DriftRows must show the carry at
// work: a carried append buckets only the rows the previous append sampled.
func TestCarriedDriftEqualsFullPass(t *testing.T) {
	in := func(rows int, seed int64) func(*testing.T) *storage.Table {
		return func(t *testing.T) *storage.Table {
			return memoBatch(t, rows, seed, 0, 52, []string{"east", "west"})
		}
	}
	steps := []driftStep{
		{label: "first", batch: in(500, 1)},
		{label: "second", batch: in(500, 2), carried: true},
		{label: "one row", batch: in(1, 3), carried: true},
		{label: "after one row", batch: in(300, 4), carried: true},
		{label: "after rebuild", batch: in(400, 5), rebuild: true},
		{label: "rebuilt, again", batch: in(400, 6), carried: true},
		// week is undeclared, so the sample's bucketing domain is its
		// observed extent: this batch widens it, after the append.
		{label: "widening", batch: func(t *testing.T) *storage.Table {
			return memoBatch(t, 400, 7, 40, 70, []string{"east", "west"})
		}, carried: true},
		{label: "after widening", batch: in(400, 8)},
		{label: "widened, again", batch: in(400, 9), carried: true},
		{label: "after load", batch: in(400, 10), reload: true},
		{label: "loaded, again", batch: in(400, 11), carried: true},
	}
	queries := []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 5 AND 20",
		"SELECT AVG(revenue * tier), COUNT(*) FROM sales WHERE week < 30",
		"SELECT region, AVG(revenue) FROM sales GROUP BY region",
	}
	for _, layout := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{}},
		{"stratified", Config{NumPartitions: 4, StratumColumn: "week"}},
	} {
		t.Run(layout.name, func(t *testing.T) {
			runDriftSequence(t, memoFixture(t, layout.cfg), queries, steps)
		})
	}

	// With region the only dimension, the old sample is bucketed at random
	// from the append's seeded source: there is nothing to carry, and every
	// append buckets the whole sample.
	t.Run("no numeric dimension", func(t *testing.T) {
		schema := storage.MustSchema([]storage.ColumnDef{
			{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
			{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
		})
		fill := func(tb *storage.Table, rows int, seed int64) *storage.Table {
			rng := randx.New(seed)
			for i := 0; i < rows; i++ {
				if err := tb.AppendRow([]storage.Value{
					storage.Str([]string{"east", "west"}[rng.Intn(2)]), storage.Num(rng.Normal(50, 5)),
				}); err != nil {
					t.Fatal(err)
				}
			}
			return tb
		}
		tb := fill(storage.NewTable("sales", schema), 4000, 42)
		sample, err := aqp.BuildSample(tb, 0.25, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), Config{SynopsisCap: 8})
		batch := func(rows int, seed int64) func(*testing.T) *storage.Table {
			return func(*testing.T) *storage.Table { return fill(storage.NewTable("sales_batch", schema), rows, seed) }
		}
		runDriftSequence(t, sys, []string{
			"SELECT AVG(revenue) FROM sales WHERE region = 'east'",
			"SELECT AVG(revenue * 2) FROM sales",
		}, []driftStep{
			{label: "first", batch: batch(400, 1)},
			{label: "second", batch: batch(400, 2)},
			{label: "one row", batch: batch(1, 3)},
			{label: "third", batch: batch(400, 4)},
		})
	})
}

// runDriftSequence runs steps against sys, asking queries before each
// append so the synopsis holds AVG models to adjust, and checks every
// append against the full-pass oracle.
func runDriftSequence(t *testing.T, sys *System, queries []string, steps []driftStep) {
	t.Helper()
	prevSampled := 0
	for _, st := range steps {
		for _, q := range queries {
			if _, err := sys.Execute(q); err != nil {
				t.Fatalf("%s: %s: %v", st.label, q, err)
			}
		}
		if st.rebuild {
			sys.RebuildSample()
		}
		if st.reload {
			var buf bytes.Buffer
			if err := sys.SaveSynopsis(&buf); err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadSynopsis(&buf); err != nil {
				t.Fatal(err)
			}
		}

		// The oracle's inputs: the pre-append sample flattened exactly as
		// the drift source used to be, the seed Append will use, and each
		// AVG model's entries as they stand (applyAppend detaches the
		// entries it edits).
		batch := st.batch(t)
		old := sys.Engine().Acquire()
		whole := storage.Concat("whole", old.Sample.Pieces())
		seed := sys.appendSeed + 1
		before := map[query.FuncID]*model{}
		for _, id := range sys.Verdict().FuncIDs() {
			if m := sys.Verdict().modelOf(id); id.Kind == query.AvgAgg && len(m.entries) > 0 {
				before[id] = &model{id: id, entries: m.entries}
			}
		}
		if len(before) < 2 {
			t.Fatalf("%s: %d AVG models with entries, want 2", st.label, len(before))
		}
		rows0 := sys.StatsSnapshot().DriftRows

		sampled, err := sys.Append(batch)
		if err != nil {
			t.Fatalf("%s: append: %v", st.label, err)
		}

		want := len(before) * whole.Rows()
		if st.carried {
			want = len(before) * prevSampled
		}
		if got := sys.StatsSnapshot().DriftRows - rows0; got != want {
			t.Errorf("%s: drift bucketed %d sample rows, want %d (carried %v, %d AVG models, sample %d rows)",
				st.label, got, want, st.carried, len(before), whole.Rows())
		}
		prevSampled = sampled

		for id, o := range before {
			m := sys.Verdict().modelOf(id)
			d := EstimateDrift(whole, batch, o.entries[0].sn.Measure, driftBuckets, seed)
			if !sameBits(m.appendDrift.Mu, d.Mu) || !sameBits(m.appendDrift.Eta2, d.Eta2) {
				t.Errorf("%s: %s drift %+v, full pass %+v", st.label, id.MeasureKey, m.appendDrift, d)
				continue
			}
			o.applyAppend(d, old.BaseRows, batch.Rows())
			if len(m.entries) != len(o.entries) {
				t.Fatalf("%s: %s holds %d entries, oracle %d", st.label, id.MeasureKey, len(m.entries), len(o.entries))
			}
			for i, e := range m.entries {
				if !sameBits(e.theta, o.entries[i].theta) || !sameBits(e.beta, o.entries[i].beta) {
					t.Errorf("%s: %s entry %d (θ, β) = (%v, %v), oracle (%v, %v)", st.label, id.MeasureKey, i,
						e.theta, e.beta, o.entries[i].theta, o.entries[i].beta)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
