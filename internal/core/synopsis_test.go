package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
	if c := v.Counters(); c.Refactorizations != 11 {
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

// oracleSigma is the from-scratch Σ_n in slot order: every pair through
// kernel.Covariance, plus β² + nugget² on the diagonal.
func oracleSigma(entries []entry, p kernel.Params) *linalg.Matrix {
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
	return s
}

// oracleFactor is the from-scratch reference factor, in slot order.
func oracleFactor(entries []entry, p kernel.Params) (*linalg.Cholesky, error) {
	return linalg.NewCholesky(oracleSigma(entries, p))
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// factorReproduces checks that chol, with its rows in factor order, factors
// sigma: (P·L·Lᵀ·Pᵀ)[order[r]][order[c]] within rel of sigma's largest
// diagonal entry (plus any jitter the factor took on).
func factorReproduces(chol *linalg.Cholesky, order []int, sigma *linalg.Matrix, rel float64) error {
	n := chol.Size()
	if len(order) != n || sigma.Rows() != n {
		return fmt.Errorf("factor size %d, order %d, Σ %d", n, len(order), sigma.Rows())
	}
	seen := make([]bool, n)
	for _, slot := range order {
		if slot < 0 || slot >= n || seen[slot] {
			return fmt.Errorf("order %v is not a permutation", order)
		}
		seen[slot] = true
	}
	tol := rel*sigma.MaxAbsDiag() + chol.Jitter()
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			got := 0.0
			for k := 0; k <= c; k++ {
				got += chol.LAt(r, k) * chol.LAt(c, k)
			}
			if want := sigma.At(order[r], order[c]); !(math.Abs(got-want) <= tol) {
				return fmt.Errorf("(LLᵀ)[%d][%d] = %v, Σ[%d][%d] = %v", r, c, got, order[r], order[c], want)
			}
		}
	}
	return nil
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

// oracleKinds counts the factor-maintenance outcomes the sequences reached,
// so the suite can require that every one of them was exercised.
type oracleKinds struct {
	extend, editAtCap, editOnRepeat, refresh int
}

// TestSynopsisMaintainedEqualsOracle drives seeded random sequences of
// every kind of synopsis mutation and, after each step, compares the
// maintained model — Gram cache, slot-stable entries, edited factor — with a
// reference rebuilt from the same entries in slot order with no cache at
// all. σ², the Gram triangle, the keys and the LRU order must be
// bit-identical. The factor is bit-identical to the reference right after a
// from-scratch rebuild; after O(n²) edits its rows are in factor order, and
// P·L·Lᵀ·Pᵀ must reproduce the reference Σ_n (relative 1e-9), and inference
// the reference's answers (relative 1e-8). Which maintenance each step did —
// extend, edit at the cap, edit on an improved repeat, or the σ² refresh
// after builtAt edits — is predicted from the model state and asserted on
// the counters. Concurrent readers infer against the published snapshots
// throughout, so -race checks that no in-place edit (stamps, Gram rows,
// slot replacement) reaches published state.
func TestSynopsisMaintainedEqualsOracle(t *testing.T) {
	sequences := 210
	if testing.Short() {
		sequences = 30
	}
	var kinds oracleKinds
	for seq := 0; seq < sequences; seq++ {
		seq := seq
		quota := []int{4, 16, 64}[seq%3]
		t.Run(fmt.Sprintf("seq=%d/cap=%d", seq, quota), func(t *testing.T) {
			runOracleSequence(t, int64(1000+seq), quota, seq%4 == 3, &kinds)
		})
	}
	if kinds.extend == 0 || kinds.editAtCap == 0 || kinds.editOnRepeat == 0 || kinds.refresh == 0 {
		t.Fatalf("maintenance kinds not all exercised: %+v", kinds)
	}
}

func runOracleSequence(t *testing.T, seed int64, quota int, withSetParams bool, kinds *oracleKinds) {
	rng := randx.New(seed)
	tb := oracleTable(t, seed)
	cfg := Config{SynopsisCap: quota, LearnCap: 8}
	v := New(tb, cfg)
	cfg = v.Config()

	probes := make([]*query.Snippet, 4)
	for i := range probes {
		probes[i] = oracleSnippet(tb, rng)
	}
	probeRaw := query.ScalarEstimate{Value: 5, StdErr: 0.8, PopErr: 0.05}
	id := probes[0].Func()
	ctr := v.Counters

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
		prevChol, prevPub := m.chol, m.published.Load()
		prevSig2 := m.params.Sigma2
		// What an edit-kind record will do: read off the state before it, and
		// off whether the record kept the Gram cache.
		canEdit := func(nAfter int) bool { return prevChol != nil && m.gram != nil && nAfter > minExtendSlots }
		refreshDue := m.edits+1 >= m.builtAt
		editOp, editKind := false, (*int)(nil)
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
			editKind = &kinds.extend
			if len(slots) >= quota {
				victim := lru[0]
				lru = lru[1:]
				delete(held, victim)
				for i, k := range slots {
					if k == victim {
						slots[i] = key
					}
				}
				editKind = &kinds.editAtCap
			} else {
				slots = append(slots, key)
			}
			held[key] = sn
			touch(key)
			v.Record(sn, est)
			editOp = true
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
			editOp, editKind = true, &kinds.editOnRepeat
		case op < 16: // Lemma 3 adjustment alone
			v.applyAppend(id, Drift{Mu: rng.Normal(0, 0.2), Eta2: 0.01}, tb.Rows(), 10)
		case op < 17: // append that widens x's domain
			maxX += 7
			appendOracleRow(t, tb, maxX, "a")
			v.applyAppend(id, Drift{Eta2: 0.01}, tb.Rows()-1, 1)
		case op < 18: // append that grows c's dictionary
			newCats++
			appendOracleRow(t, tb, 50, fmt.Sprintf("new%d", newCats))
			v.applyAppend(id, Drift{Eta2: 0.01}, tb.Rows()-1, 1)
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
		edited := after.FactorEdits - before.FactorEdits

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
			if m.published.Load() != prevPub || m.chol != prevChol || refactored || edited != 0 || after.NoopRepeats != before.NoopRepeats+1 {
				t.Fatalf("step %d: unchanged repeat republished (pub same=%v, chol same=%v, refactored=%v, edits %d, noops %d→%d)",
					step, m.published.Load() == prevPub, m.chol == prevChol, refactored, edited, before.NoopRepeats, after.NoopRepeats)
			}
		}

		// The maintenance the step did: an edit-kind record edits the factor
		// in O(n²) unless there is nothing to edit (no factor, ≤ 8 slots) or
		// the σ² refresh is due; everything else edits nothing.
		switch {
		case editOp && canEdit(len(m.entries)) && !refreshDue:
			if edited != 1 || refactored || m.chol == prevChol {
				t.Fatalf("step %d: expected one factor edit (n=%d, edits %d, builtAt %d): edits %d, refactored %v",
					step, len(m.entries), m.edits, m.builtAt, edited, refactored)
			}
			*editKind++
		case editOp:
			if edited != 0 || !refactored {
				t.Fatalf("step %d: expected a from-scratch rebuild (n=%d, refresh due %v): edits %d, refactored %v",
					step, len(m.entries), refreshDue, edited, refactored)
			}
			if canEdit(len(m.entries)) {
				kinds.refresh++
			}
		case edited != 0:
			t.Fatalf("step %d: %d factor edits on a step that records nothing new", step, edited)
		}

		// σ²: re-estimated exactly when the factor was rebuilt from scratch.
		wantSig2 := prevSig2
		if refactored && !m.paramsFixed {
			wantSig2 = m.sigma2Analytic(m.params)
		}
		if !paramsSet && math.Float64bits(m.params.Sigma2) != math.Float64bits(wantSig2) {
			t.Fatalf("step %d (refactored=%v): sigma2 %v, oracle %v", step, refactored, m.params.Sigma2, wantSig2)
		}

		// The Gram triangle, bit for bit, in slot order.
		if m.gram != nil {
			for i := range m.entries {
				for j := 0; j <= i; j++ {
					want := kernel.UnitCovariance(m.entries[j].sn, m.entries[i].sn, m.params.Ells)
					if math.Float64bits(m.gram[tri(i, j)]) != math.Float64bits(want) {
						t.Fatalf("step %d: gram[%d][%d] = %v, fresh %v", step, i, j, m.gram[tri(i, j)], want)
					}
				}
			}
		}

		// The factor: bit-identical to the reference after a rebuild, the
		// reference Σ_n in factor order after edits, the previous factor
		// itself when the step changed nothing inference reads.
		wantChol, oerr := oracleFactor(m.entries, m.params)
		switch {
		case m.chol == nil:
			if !refactored || oerr == nil {
				t.Fatalf("step %d: no factor (refactored=%v), yet the reference factorizes (err %v)", step, refactored, oerr)
			}
		case refactored:
			if err := sameFactorBits(m.chol, wantChol); err != nil {
				t.Fatalf("step %d (rebuilt, n=%d): %v", step, len(m.entries), err)
			}
			if !slices.Equal(m.order, identityOrder(len(m.entries))) {
				t.Fatalf("step %d: rebuilt factor order %v is not slot order", step, m.order)
			}
		case edited == 0 && m.chol != prevChol:
			t.Fatalf("step %d: factor replaced without an edit or a rebuild", step)
		default:
			if err := factorReproduces(m.chol, m.order, oracleSigma(m.entries, m.params), 1e-9); err != nil {
				t.Fatalf("step %d (n=%d, edits %d): %v", step, len(m.entries), m.edits, err)
			}
		}

		// Inference on the probes against the reference state: the
		// from-scratch factor at the same σ², in slot order.
		var mm mathx.Moments
		for _, e := range m.entries {
			mm.Add(e.obs)
		}
		if oerr != nil {
			wantChol = nil
		}
		oracle := newInferState(m.entries, m.params, wantChol, identityOrder(len(m.entries)), mm.Mean())
		for i, p := range probes {
			want := inferOn(oracle, p, probeRaw, cfg)
			exact := m.chol == nil || refactored
			if exact && (math.Float64bits(got[i].Answer) != math.Float64bits(want.Answer) ||
				math.Float64bits(got[i].Err) != math.Float64bits(want.Err)) ||
				!exact && (!closeRel(got[i].Answer, want.Answer, 1e-8) || !closeRel(got[i].Err, want.Err, 1e-8)) {
				t.Fatalf("step %d probe %d (exact=%v): maintained %v ± %v, oracle %v ± %v", step, i, exact, got[i].Answer, got[i].Err, want.Answer, want.Err)
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

// closeRel reports |a − b| ≤ rel·|b|.
func closeRel(a, b, rel float64) bool { return math.Abs(a-b) <= rel*math.Abs(b) }
