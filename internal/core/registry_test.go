package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// multiMeasureTable builds a relation with one dimension and nMeasures
// measure columns, so workloads can exercise many aggregate functions
// (each measure column is its own FuncID and model).
func multiMeasureTable(t testing.TB, rows, nMeasures int) *storage.Table {
	t.Helper()
	defs := []storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension, Min: 0, Max: 100},
	}
	for i := 0; i < nMeasures; i++ {
		defs = append(defs, storage.ColumnDef{
			Name: fmt.Sprintf("m%d", i), Kind: storage.Numeric, Role: storage.Measure,
		})
	}
	schema := storage.MustSchema(defs)
	tb := storage.NewTable("multi", schema)
	rng := randx.New(11)
	vals := make([]storage.Value, len(defs))
	for r := 0; r < rows; r++ {
		x := rng.Uniform(0, 100)
		vals[0] = storage.Num(x)
		for i := 0; i < nMeasures; i++ {
			vals[i+1] = storage.Num(float64(i+1)*10 + x + rng.Normal(0, 1))
		}
		if err := tb.AppendRow(vals); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// measureSnippet builds an AVG(m<i>) snippet over x ∈ [lo, hi].
func measureSnippet(tb *storage.Table, i int, lo, hi float64) *query.Snippet {
	g := query.NewRegion(tb.Schema())
	xcol, _ := tb.Schema().Lookup("x")
	g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi})
	key := fmt.Sprintf("m%d", i)
	mcol, _ := tb.Schema().Lookup(key)
	return &query.Snippet{
		Kind:       query.AvgAgg,
		MeasureKey: key,
		Measure:    func(t *storage.Table, row int) float64 { return t.NumAt(row, mcol) },
		Region:     g,
		Table:      tb,
	}
}

// recorded is one Record call of a test workload.
type recorded struct {
	sn  *query.Snippet
	est query.ScalarEstimate
}

// workloadRecords returns nPerFunc deterministic records for each of nFuncs
// aggregate functions, indexed [function][k].
func workloadRecords(tb *storage.Table, nFuncs, nPerFunc int) [][]recorded {
	out := make([][]recorded, nFuncs)
	rng := randx.New(23)
	for k := 0; k < nPerFunc; k++ {
		for i := 0; i < nFuncs; i++ {
			lo := rng.Uniform(0, 90)
			out[i] = append(out[i], recorded{measureSnippet(tb, i, lo, lo+rng.Uniform(3, 8)),
				query.ScalarEstimate{Value: rng.Normal(float64(i+1)*10+50, 2), StdErr: 0.3}})
		}
	}
	return out
}

// recordWorkload records workloadRecords serially, round-robin over the
// functions, so the functions are created in index order.
func recordWorkload(t testing.TB, v *Verdict, tb *storage.Table, nFuncs, nPerFunc int) {
	t.Helper()
	recs := workloadRecords(tb, nFuncs, nPerFunc)
	for k := 0; k < nPerFunc; k++ {
		for i := 0; i < nFuncs; i++ {
			v.Record(recs[i][k].sn, recs[i][k].est)
		}
	}
}

// sameImproved reports whether two inferences carry the same bits.
func sameImproved(a, b Improved) bool {
	return a.UsedModel == b.UsedModel && sameBits(a.Answer, b.Answer) && sameBits(a.Err, b.Err) &&
		sameBits(a.ModelAnswer, b.ModelAnswer) && sameBits(a.ModelErr, b.ModelErr) &&
		sameBits(a.PriorPrediction, b.PriorPrediction) && sameBits(a.Gamma2, b.Gamma2)
}

// sameParams reports whether two parameter sets carry the same bits.
func sameParams(a, b kernel.Params) bool {
	if !sameBits(a.Sigma2, b.Sigma2) || len(a.Ells) != len(b.Ells) {
		return false
	}
	for col, ell := range a.Ells {
		if other, ok := b.Ells[col]; !ok || !sameBits(ell, other) {
			return false
		}
	}
	return true
}

// Models are independent and learning seeds follow creation order, so how
// writers interleave cannot change any result: a build that records each
// function from its own goroutine must match a serial build bit for bit —
// learned parameters, synopsis keys, inferences and saved bytes — after
// Train and after an append adjustment.
func TestWriterInterleavingInvariance(t *testing.T) {
	const nFuncs, nPerFunc = 6, 8
	tb := multiMeasureTable(t, 4000, nFuncs)
	batch := multiMeasureTable(t, 400, nFuncs) // a prefix of tb's rows, appended again
	ids := make([]query.FuncID, nFuncs)
	for i := range ids {
		ids[i] = query.FuncID{Kind: query.AvgAgg, MeasureKey: fmt.Sprintf("m%d", i)}
	}

	serial := New(tb, Config{})
	recordWorkload(t, serial, tb, nFuncs, nPerFunc)

	parallel := New(tb, Config{})
	recs := workloadRecords(tb, nFuncs, nPerFunc)
	for i := range recs {
		parallel.Infer(recs[i][0].sn, recs[i][0].est) // create in serial order
	}
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(recs []recorded) {
			defer wg.Done()
			for _, r := range recs {
				parallel.Record(r.sn, r.est)
			}
		}(recs[i])
	}
	wg.Wait()

	compare := func(stage string) {
		t.Helper()
		for i, id := range ids {
			sp, _ := serial.Params(id)
			pp, _ := parallel.Params(id)
			if !sameParams(sp, pp) {
				t.Fatalf("%s m%d: params %+v vs %+v", stage, i, pp, sp)
			}
			if sk, pk := serial.SynopsisKeys(id), parallel.SynopsisKeys(id); !slices.Equal(sk, pk) {
				t.Fatalf("%s m%d: keys %q vs %q", stage, i, pk, sk)
			}
			probe := measureSnippet(tb, i, 40, 46)
			raw := query.ScalarEstimate{Value: float64(i+1)*10 + 52, StdErr: 0.8}
			if si, pi := serial.Infer(probe, raw), parallel.Infer(probe, raw); !sameImproved(si, pi) {
				t.Fatalf("%s m%d: infer %+v vs %+v", stage, i, pi, si)
			}
		}
		var sb, pb bytes.Buffer
		if err := serial.Save(&sb); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Save(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Fatalf("%s: save bytes differ", stage)
		}
	}
	for _, v := range []*Verdict{serial, parallel} {
		if err := v.Train(); err != nil {
			t.Fatal(err)
		}
	}
	compare("train")
	for _, v := range []*Verdict{serial, parallel} {
		v.OnAppend(tb, batch, 7)
	}
	compare("append")
}

// Concurrent writers on distinct aggregate functions must be race-free and
// lose nothing; cross-checks the synopsis accounting (meaningful under
// -race).
func TestShardedConcurrentRecordTrainInfer(t *testing.T) {
	tb := multiMeasureTable(t, 2000, 8)
	v := New(tb, Config{})
	const perFunc = 30
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := randx.New(int64(100 + i))
			for k := 0; k < perFunc; k++ {
				lo := rng.Uniform(0, 90)
				v.Record(measureSnippet(tb, i, lo, lo+3),
					query.ScalarEstimate{Value: rng.Normal(0, 1), StdErr: 0.5})
				// Interleave lock-free reads with the writes.
				_ = v.Infer(measureSnippet(tb, i, 20, 30), query.ScalarEstimate{Value: 0, StdErr: 1})
				_ = v.SnippetCount()
			}
		}(i)
	}
	wg.Wait()
	if got := len(v.FuncIDs()); got != 8 {
		t.Fatalf("FuncIDs=%d want 8", got)
	}
	st := v.Stats()
	if st.Snippets != 8*perFunc || st.Functions != 8 || st.Records != 8*perFunc {
		t.Fatalf("synopsis totals: %d snippets / %d funcs / %d records", st.Snippets, st.Functions, st.Records)
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	if got := v.Counters().Trains; got != 8 {
		t.Fatalf("Trains=%d want 8", got)
	}
	inf := v.Infer(measureSnippet(tb, 3, 40, 43), query.ScalarEstimate{Value: 0.2, StdErr: 0.6})
	if inf.Err <= 0 {
		t.Fatalf("inference after concurrent build: %+v", inf)
	}
}

// Writer independence, proven deterministically (wall-clock scaling needs
// cores, but lock independence does not): while one model's mu is held, a
// Record for another function completes and an Infer against the held
// model's published state completes with the same answer, while a Record
// for the held function waits until release.
func TestRecordCrossModelDoesNotBlock(t *testing.T) {
	tb := multiMeasureTable(t, 500, 2)
	v := New(tb, Config{})
	for i := 0; i < 2; i++ {
		v.Record(measureSnippet(tb, i, 10, 15), query.ScalarEstimate{Value: 1, StdErr: 1})
	}
	probe := measureSnippet(tb, 0, 12, 14)
	raw := query.ScalarEstimate{Value: 1.2, StdErr: 1}
	want := v.Infer(probe, raw) // publishes model 0

	held := v.modelOf(probe.Func())
	held.mu.Lock() // simulate a long write on model 0 (e.g. an O(n²) extension)
	waitFor := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			held.mu.Unlock()
			t.Fatalf("%s blocked behind model 0's writer", what)
		}
	}
	waitFor("Record of another function", func() {
		v.Record(measureSnippet(tb, 1, 20, 25), query.ScalarEstimate{Value: 1, StdErr: 1})
	})
	var got Improved
	waitFor("Infer of the held model's published state", func() { got = v.Infer(probe, raw) })
	if !sameImproved(got, want) {
		t.Fatalf("Infer under a held writer: %+v, want %+v", got, want)
	}

	sameDone := make(chan struct{})
	go func() {
		v.Record(measureSnippet(tb, 0, 20, 25), query.ScalarEstimate{Value: 1, StdErr: 1})
		close(sameDone)
	}()
	select {
	case <-sameDone:
		t.Fatal("Record of the held function did not serialize behind its writer")
	case <-time.After(50 * time.Millisecond):
	}
	held.mu.Unlock()
	select {
	case <-sameDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Record never completed after the writer released")
	}
}
