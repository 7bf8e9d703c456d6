package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// TestSynopsisSigma2RefreshOnDoubling: a never-trained model below the cap
// must not keep the σ² it estimated from its first snippet. Extend never
// re-estimates σ², so record forces a from-scratch rebuild whenever the
// slot count has doubled since the last one (and always up to
// minExtendSlots): σ² is exact at 1, 2, 4, 8, … snippets and at most one
// doubling stale in between — within 2× on this fixture, where the frozen
// one-snippet estimate was 60–190× off. Pinned parameters are never touched.
func TestSynopsisSigma2RefreshOnDoubling(t *testing.T) {
	tb, _ := smoothTable(t, 4000, 12, 1.0, 0.3, 5)
	id := avgSnippet(tb, 0, 1).Func()
	probe := avgSnippet(tb, 40, 45)
	raw := query.ScalarEstimate{Value: 0, StdErr: 0.5}

	v := New(tb, Config{})
	pinned := New(tb, Config{})
	pinned.SetParams(id, kernel.Params{Sigma2: 0.37, Ells: map[int]float64{0: 9}})
	rng := randx.New(8)
	for k := 1; k <= 64; k++ {
		lo := rng.Uniform(0, 94)
		hi := lo + rng.Uniform(2, 6)
		sn := avgSnippet(tb, lo, hi)
		est := noisyRaw(rng, exactAvg(tb, lo, hi), 0.05)
		for _, vv := range []*Verdict{v, pinned} {
			vv.Infer(sn, est)
			vv.Record(sn, est)
		}
		v.Infer(probe, raw) // publish: the point at which a stale factor is rebuilt
		m := v.modelOf(id)
		got, want := m.params.Sigma2, m.sigma2Analytic(m.params)
		if k&(k-1) == 0 && got != want {
			t.Fatalf("k=%d (doubling point): sigma2 %v, analytic %v", k, got, want)
		}
		switch k {
		case 2, 3, 17, 60:
			if got > 2*want || got < want/2 {
				t.Fatalf("k=%d: sigma2 %v not within 2x of analytic %v", k, got, want)
			}
		}
	}
	pinned.Infer(probe, raw)
	if p, _ := pinned.Params(id); p.Sigma2 != 0.37 {
		t.Fatalf("pinned sigma2 moved to %v", p.Sigma2)
	}
	// 64 records: rebuilds at 1…8, 16, 32, 64 and Extend everywhere else.
	if c := v.ShardCounters()[shardIndex(id, v.NumShards())]; c.Refactorizations != 11 {
		t.Fatalf("refactorizations = %d, want 11 (every record up to %d slots, then one per doubling)", c.Refactorizations, minExtendSlots)
	}
}

// oracleTable has one numeric dimension with an observed (not declared)
// domain and one categorical dimension, so appends can widen the domain and
// grow the dictionary — the two table-side inputs of the Gram signature.
func oracleTable(t *testing.T, seed int64) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "c", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "y", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("oracle", schema)
	rng := randx.New(seed)
	cats := []string{"a", "b", "c"}
	for i := 0; i < 60; i++ {
		appendOracleRow(t, tb, rng.Uniform(0, 100), cats[i%3])
	}
	return tb
}

func appendOracleRow(t *testing.T, tb *storage.Table, x float64, c string) {
	t.Helper()
	if err := tb.AppendRow([]storage.Value{storage.Num(x), storage.Str(c), storage.Num(x / 10)}); err != nil {
		t.Fatal(err)
	}
}

// oracleSnippet builds AVG(y) over an optional x range and an optional
// category set. Unconstrained dimensions resolve to the table's domain and
// dictionary at evaluation time, which is what makes the Gram cache's
// validity depend on them.
func oracleSnippet(tb *storage.Table, rng *randx.Source) *query.Snippet {
	g := query.NewRegion(tb.Schema())
	if rng.Intn(5) != 0 {
		lo := math.Round(rng.Uniform(0, 90)*8) / 8
		g.ConstrainNum(0, query.NumRange{Lo: lo, Hi: lo + 1 + float64(rng.Intn(12))})
	}
	if rng.Intn(3) != 0 {
		codes := []int32{int32(rng.Intn(3))}
		if rng.Intn(2) == 0 && codes[0] < 2 {
			codes = append(codes, codes[0]+1)
		}
		g.ConstrainCat(1, query.CatSet{Codes: codes})
	}
	return &query.Snippet{
		Kind:       query.AvgAgg,
		MeasureKey: "y",
		Measure:    func(t *storage.Table, row int) float64 { return t.NumAt(row, 2) },
		Region:     g,
		Table:      tb,
	}
}

// oracleFactor is the from-scratch reference: every pair through
// kernel.Covariance, then linalg.NewCholesky.
func oracleFactor(entries []entry, p kernel.Params) (*linalg.Cholesky, error) {
	n := len(entries)
	s := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			c := kernel.Covariance(entries[i].sn, entries[j].sn, p)
			if i == j {
				c += entries[i].beta*entries[i].beta + entries[i].nugget*entries[i].nugget
			}
			s.Set(i, j, c)
			s.Set(j, i, c)
		}
	}
	return linalg.NewCholesky(s)
}

func sameFactorBits(a, b *linalg.Cholesky) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("factor presence differs: %v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if a.Size() != b.Size() {
		return fmt.Errorf("factor size %d vs %d", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(a.LAt(i, j)) != math.Float64bits(b.LAt(i, j)) {
				return fmt.Errorf("L[%d][%d]: %v vs %v", i, j, a.LAt(i, j), b.LAt(i, j))
			}
		}
	}
	return nil
}

// TestSynopsisMaintainedEqualsOracle drives seeded random sequences of
// every kind of synopsis mutation and, after each step, requires the
// maintained model — Gram cache, slot-stable entries, incremental factor —
// to be bit-identical to a reference rebuilt from the same entries in the
// same slot order with no cache at all. Concurrent readers infer against
// the published snapshots throughout, so -race checks that no in-place edit
// (stamps, Gram rows, slot replacement) reaches published state.
func TestSynopsisMaintainedEqualsOracle(t *testing.T) {
	sequences := 210
	if testing.Short() {
		sequences = 30
	}
	for seq := 0; seq < sequences; seq++ {
		seq := seq
		quota := []int{4, 16, 64}[seq%3]
		t.Run(fmt.Sprintf("seq=%d/cap=%d", seq, quota), func(t *testing.T) {
			runOracleSequence(t, int64(1000+seq), quota, seq%4 == 3)
		})
	}
}

func runOracleSequence(t *testing.T, seed int64, quota int, withSetParams bool) {
	rng := randx.New(seed)
	tb := oracleTable(t, seed)
	cfg := Config{SynopsisCap: quota, LearnCap: 8, MultiStarts: -1}
	v := New(tb, cfg)
	cfg = v.Config()

	probes := make([]*query.Snippet, 4)
	for i := range probes {
		probes[i] = oracleSnippet(tb, rng)
	}
	probeRaw := query.ScalarEstimate{Value: 5, StdErr: 0.8, PopErr: 0.05}
	id := probes[0].Func()
	ctr := func() ShardCounter { return v.ShardCounters()[shardIndex(id, v.NumShards())] }

	// Readers: kicked just before every mutation, so their inferences —
	// and the publish a reader may win — overlap the writer's edits.
	// Theorem 1 must hold on whatever snapshot they catch.
	kick := make(chan struct{}, 2)
	var readers sync.WaitGroup
	for r := 0; r < cap(kick); r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for range kick {
				for _, p := range probes {
					if res := v.Infer(p, probeRaw); res.Err > probeRaw.StdErr*(1+1e-12) {
						t.Errorf("reader: improved error %v above raw %v", res.Err, probeRaw.StdErr)
					}
				}
			}
		}()
	}
	defer func() {
		close(kick)
		readers.Wait()
	}()

	var (
		lru     []string                      // reference LRU list, oldest first
		slots   []string                      // reference slot → key
		held    = map[string]*query.Snippet{} // key → snippet in the synopsis
		maxX    = 100.0
		newCats = 0
		steps   = 30 + quota*5/4
	)
	touch := func(key string) {
		for i, k := range lru {
			if k == key {
				lru = append(lru[:i], lru[i+1:]...)
				break
			}
		}
		lru = append(lru, key)
	}
	v.Infer(probes[0], probeRaw) // create and publish the empty model

	for step := 0; step < steps; step++ {
		m := v.modelOf(id)
		before := ctr()
		prevChol, prevPub, prevN := m.chol, m.published, len(m.entries)
		prevSig2 := m.params.Sigma2
		var newSn *query.Snippet // set when the step recorded a new snippet
		var newEst query.ScalarEstimate
		unchanged, paramsSet := false, false

		for i := 0; i < cap(kick); i++ {
			select {
			case kick <- struct{}{}:
			default:
			}
		}
		op := rng.Intn(20)
		if len(slots) < quota-1 && rng.Intn(5) != 0 {
			op = 0 // fill quickly, so most of the sequence runs at the cap
		}
		switch {
		case op < 9 || len(lru) == 0: // new snippet (evicts at cap)
			sn := oracleSnippet(tb, rng)
			for held[sn.Key()] != nil {
				sn = oracleSnippet(tb, rng)
			}
			est := query.ScalarEstimate{Value: rng.Normal(5, 2), StdErr: rng.Uniform(0.3, 0.9), PopErr: rng.Uniform(0, 0.1)}
			key := sn.Key()
			if len(slots) >= quota {
				victim := lru[0]
				lru = lru[1:]
				delete(held, victim)
				for i, k := range slots {
					if k == victim {
						slots[i] = key
					}
				}
			} else {
				slots = append(slots, key)
			}
			held[key] = sn
			touch(key)
			v.Record(sn, est)
			newSn, newEst = sn, est
		case op < 13: // repeat that teaches nothing
			key := lru[rng.Intn(len(lru))]
			beta := m.entries[m.byKey[key]].beta
			touch(key)
			v.Record(held[key], query.ScalarEstimate{Value: rng.Normal(5, 2), StdErr: beta * (1 + float64(rng.Intn(2)))})
			unchanged = true
		case op < 15: // repeat with a lower error
			key := lru[rng.Intn(len(lru))]
			beta := m.entries[m.byKey[key]].beta
			touch(key)
			v.Record(held[key], query.ScalarEstimate{Value: rng.Normal(5, 2), StdErr: beta * 0.8, PopErr: 0.02})
		case op < 16: // Lemma 3 adjustment alone
			v.ApplyAppend(id, Drift{Mu: rng.Normal(0, 0.2), Eta2: 0.01}, tb.Rows(), 10)
		case op < 17: // append that widens x's domain
			maxX += 7
			appendOracleRow(t, tb, maxX, "a")
			v.ApplyAppend(id, Drift{Eta2: 0.01}, tb.Rows()-1, 1)
		case op < 18: // append that grows c's dictionary
			newCats++
			appendOracleRow(t, tb, 50, fmt.Sprintf("new%d", newCats))
			v.ApplyAppend(id, Drift{Eta2: 0.01}, tb.Rows()-1, 1)
		case op < 19 || !withSetParams:
			if err := v.Train(); err != nil {
				t.Fatalf("step %d: train: %v", step, err)
			}
		default:
			v.SetParams(id, kernel.Params{Sigma2: rng.Uniform(0.5, 3), Ells: map[int]float64{0: rng.Uniform(5, 60)}})
			paramsSet = true
		}

		// Publish (if the step invalidated anything) and read the result.
		got := make([]Improved, len(probes))
		for i, p := range probes {
			got[i] = v.Infer(p, probeRaw)
		}
		m = v.modelOf(id)
		after := ctr()
		refactored := after.Refactorizations > before.Refactorizations

		// Slots, eviction order.
		if len(m.entries) != len(slots) {
			t.Fatalf("step %d: %d entries, reference has %d", step, len(m.entries), len(slots))
		}
		for i, k := range slots {
			if m.entries[i].sn.Key() != k {
				t.Fatalf("step %d: slot %d holds %s, reference %s (evicted key is not the LRU head)", step, i, m.entries[i].sn.Key(), k)
			}
		}
		rec := m.byRecency()
		for i, k := range lru {
			if rec[i].sn.Key() != k {
				t.Fatalf("step %d: recency order differs from the reference LRU list at %d", step, i)
			}
		}

		// An unchanged repeat is a pure recency bump.
		if unchanged {
			if m.published != prevPub || m.chol != prevChol || refactored || after.NoopRepeats != before.NoopRepeats+1 {
				t.Fatalf("step %d: unchanged repeat republished (pub same=%v, chol same=%v, refactored=%v, noops %d→%d)",
					step, m.published == prevPub, m.chol == prevChol, refactored, before.NoopRepeats, after.NoopRepeats)
			}
		}

		// σ²: re-estimated exactly when the factor was rebuilt from scratch.
		wantSig2 := prevSig2
		if refactored && !m.paramsFixed {
			wantSig2 = m.sigma2Analytic(m.params)
		}
		if !paramsSet && math.Float64bits(m.params.Sigma2) != math.Float64bits(wantSig2) {
			t.Fatalf("step %d (refactored=%v): sigma2 %v, oracle %v", step, refactored, m.params.Sigma2, wantSig2)
		}

		// The factor: from scratch when the model says it refactorized, the
		// reference Extend of the previous factor when it extended, the
		// previous factor itself otherwise.
		var wantChol *linalg.Cholesky
		switch {
		case refactored:
			c, err := oracleFactor(m.entries, m.params)
			if err == nil {
				wantChol = c
			}
		case newSn != nil && len(m.entries) == prevN+1 && prevN > 0:
			b := make([]float64, prevN)
			for i := range b {
				b[i] = kernel.Covariance(m.entries[i].sn, newSn, m.params)
			}
			diag := kernel.Variance(newSn, m.params) + newEst.PopErr*newEst.PopErr + newEst.StdErr*newEst.StdErr
			c, err := prevChol.Extend(b, diag)
			if err != nil {
				t.Fatalf("step %d: reference Extend failed but the model did not refactorize: %v", step, err)
			}
			wantChol = c
		default:
			wantChol = prevChol
		}
		if err := sameFactorBits(m.chol, wantChol); err != nil {
			t.Fatalf("step %d (refactored=%v, n=%d): %v", step, refactored, len(m.entries), err)
		}

		// Inference on the probes against an oracle state.
		var mm mathx.Moments
		for _, e := range m.entries {
			mm.Add(e.obs)
		}
		oracle := &inferState{entries: m.entries, params: m.params, chol: wantChol, mu: mm.Mean()}
		for i, p := range probes {
			want := inferOn(oracle, p, probeRaw, cfg)
			if math.Float64bits(got[i].Answer) != math.Float64bits(want.Answer) ||
				math.Float64bits(got[i].Err) != math.Float64bits(want.Err) {
				t.Fatalf("step %d probe %d: maintained %v ± %v, oracle %v ± %v", step, i, got[i].Answer, got[i].Err, want.Answer, want.Err)
			}
			if got[i].Err > probeRaw.StdErr*(1+1e-12) {
				t.Fatalf("step %d probe %d: Theorem 1 violated: %v > %v", step, i, got[i].Err, probeRaw.StdErr)
			}
		}

		// Save → Load keeps the synopsis and its answers. Checked where σ²
		// is what a loading process would compute: after a from-scratch
		// rebuild (Load always rebuilds) or with pinned parameters.
		if (refactored || m.paramsFixed) && step%4 == 0 && m.chol != nil {
			var buf bytes.Buffer
			if err := v.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()), tb, cfg)
			if err != nil {
				t.Fatalf("step %d: load: %v", step, err)
			}
			if a, b := v.SynopsisKeys(id), loaded.SynopsisKeys(id); strings.Join(a, ";") != strings.Join(b, ";") {
				t.Fatalf("step %d: synopsis keys differ after load", step)
			}
			for i, e := range loaded.modelOf(id).byRecency() {
				if e.sn.Key() != lru[i] {
					t.Fatalf("step %d: loaded recency order differs at %d", step, i)
				}
			}
			for i, p := range probes {
				r := loaded.Infer(p, probeRaw)
				if math.Abs(r.Answer-got[i].Answer) > 1e-9 || math.Abs(r.Err-got[i].Err) > 1e-9 {
					t.Fatalf("step %d probe %d: loaded %v ± %v, live %v ± %v", step, i, r.Answer, r.Err, got[i].Answer, got[i].Err)
				}
			}
		}
	}
}
