package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

func testTable(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension, Min: 0, Max: 100},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "rev", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	for _, r := range []string{"a", "b", "c", "d"} {
		if err := tb.AppendRow([]storage.Value{storage.Num(50), storage.Str(r), storage.Num(1)}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// snip builds a snippet with the given week range and region list (nil =
// unconstrained) for the given aggregate kind.
func snip(t *testing.T, tb *storage.Table, kind query.AggKind, lo, hi float64, regions []string) *query.Snippet {
	t.Helper()
	g := query.NewRegion(tb.Schema())
	wcol, _ := tb.Schema().Lookup("week")
	g.ConstrainNum(wcol, query.NumRange{Lo: lo, Hi: hi})
	if regions != nil {
		rcol, _ := tb.Schema().Lookup("region")
		var codes []int32
		for _, r := range regions {
			if c, ok := tb.DictOf(rcol).LookupCode(r); ok {
				codes = append(codes, c)
			}
		}
		if codes == nil {
			codes = []int32{}
		}
		// Codes come from insertion order a<b<c<d, already sorted.
		g.ConstrainCat(rcol, query.CatSet{Codes: codes})
	}
	sn := &query.Snippet{Kind: kind, Region: g, Table: tb}
	if kind == query.AvgAgg {
		sn.MeasureKey = "rev"
		col, _ := tb.Schema().Lookup("rev")
		sn.Measure = func(tb *storage.Table, row int) float64 { return tb.NumAt(row, col) }
	}
	return sn
}

func params(tb *storage.Table, ell float64) Params {
	p := DefaultParams(tb)
	for k := range p.Ells {
		p.Ells[k] = ell
	}
	p.Sigma2 = 2.5
	return p
}

func TestCovarianceSymmetry(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 20)
	f := func(seed int64) bool {
		r := randx.New(seed)
		mk := func() *query.Snippet {
			lo := r.Uniform(0, 80)
			hi := lo + r.Uniform(1, 20)
			var regs []string
			if r.Bool(0.5) {
				all := []string{"a", "b", "c", "d"}
				for _, x := range all {
					if r.Bool(0.5) {
						regs = append(regs, x)
					}
				}
				if regs == nil {
					regs = []string{"a"}
				}
			}
			kind := query.AvgAgg
			if r.Bool(0.5) {
				kind = query.FreqAgg
			}
			return snip(t, tb, kind, lo, hi, regs)
		}
		a := mk()
		b := mk()
		b.Kind = a.Kind // covariance is defined within one aggregate function
		if a.Kind == query.AvgAgg {
			b.MeasureKey, b.Measure = a.MeasureKey, a.Measure
		} else {
			b.MeasureKey, b.Measure = "", nil
		}
		x := Covariance(a, b, p)
		y := Covariance(b, a, p)
		return math.Abs(x-y) <= 1e-12*(1+math.Abs(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIdenticalAvgSnippetsFullCorrelation(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 1e9) // kernel ~ constant within any region
	a := snip(t, tb, query.AvgAgg, 10, 30, []string{"a"})
	v := Variance(a, p)
	// With a flat kernel, the AVG self-variance is σ²·1·(1/|F_cat|) = σ².
	if math.Abs(v-p.Sigma2) > 1e-6 {
		t.Fatalf("self variance=%v want %v", v, p.Sigma2)
	}
	// Identical snippets: correlation exactly 1.
	b := snip(t, tb, query.AvgAgg, 10, 30, []string{"a"})
	c := Covariance(a, b, p)
	if math.Abs(c-v) > 1e-9 {
		t.Fatalf("cov=%v var=%v", c, v)
	}
}

func TestCovarianceDecaysWithDistance(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 10)
	base := snip(t, tb, query.AvgAgg, 0, 10, nil)
	prev := math.Inf(1)
	for _, start := range []float64{0, 10, 20, 40, 70} {
		other := snip(t, tb, query.AvgAgg, start, start+10, nil)
		c := Covariance(base, other, p)
		if c <= 0 {
			t.Fatalf("covariance not positive at offset %v: %v", start, c)
		}
		if c >= prev {
			t.Fatalf("covariance did not decay at offset %v: %v >= %v", start, c, prev)
		}
		prev = c
	}
}

func TestDisjointCategoriesZeroCovariance(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 20)
	a := snip(t, tb, query.FreqAgg, 10, 30, []string{"a", "b"})
	b := snip(t, tb, query.FreqAgg, 10, 30, []string{"c"})
	if c := Covariance(a, b, p); c != 0 {
		t.Fatalf("disjoint categories cov=%v", c)
	}
	// Overlapping categories: positive.
	c2 := snip(t, tb, query.FreqAgg, 10, 30, []string{"b", "c"})
	if c := Covariance(a, c2, p); c <= 0 {
		t.Fatalf("overlapping categories cov=%v", c)
	}
}

func TestFreqCovarianceScalesWithOverlap(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 20)
	a := snip(t, tb, query.FreqAgg, 10, 30, nil) // all 4 regions
	one := snip(t, tb, query.FreqAgg, 10, 30, []string{"a"})
	two := snip(t, tb, query.FreqAgg, 10, 30, []string{"a", "b"})
	ca := Covariance(a, one, p)
	cb := Covariance(a, two, p)
	if math.Abs(cb-2*ca) > 1e-9*cb {
		t.Fatalf("FREQ overlap scaling: %v vs 2×%v", cb, ca)
	}
}

// buildSigma assembles the covariance matrix of n random snippets' exact
// answers; used to check positive-semidefiniteness via Cholesky.
func TestCovarianceMatrixPSD(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 15)
	f := func(seed int64) bool {
		r := randx.New(seed)
		n := 2 + r.Intn(12)
		sns := make([]*query.Snippet, n)
		for i := range sns {
			lo := r.Uniform(0, 90)
			sns[i] = snip(t, tb, query.AvgAgg, lo, lo+r.Uniform(1, 10), nil)
		}
		m := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, Covariance(sns[i], sns[j], p))
			}
			// The β² diagonal Eq. 6 adds in practice; a tiny term here keeps
			// the test about PSD-ness rather than exact rank.
			m.Add(i, i, 1e-9)
		}
		_, err := linalg.NewCholesky(m)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionMeasure(t *testing.T) {
	tb := testTable(t)
	a := snip(t, tb, query.FreqAgg, 10, 30, []string{"a", "b"})
	// width 20 × 2 categories = 40.
	if m := RegionMeasure(a); math.Abs(m-40) > 1e-9 {
		t.Fatalf("measure=%v", m)
	}
	// Unconstrained categorical: all 4 values; unconstrained week = domain 100.
	b := snip(t, tb, query.FreqAgg, 0, 100, nil)
	if m := RegionMeasure(b); math.Abs(m-400) > 1e-9 {
		t.Fatalf("measure=%v", m)
	}
	// Degenerate numeric range contributes factor 1.
	c := snip(t, tb, query.FreqAgg, 5, 5, []string{"a"})
	if m := RegionMeasure(c); math.Abs(m-1) > 1e-9 {
		t.Fatalf("degenerate measure=%v", m)
	}
}

func TestPriorMeanAndObservation(t *testing.T) {
	tb := testTable(t)
	avg := snip(t, tb, query.AvgAgg, 10, 30, nil)
	if PriorMean(avg, 7) != 7 || Observation(avg, 7) != 7 {
		t.Fatal("AVG prior/observation must pass through")
	}
	freq := snip(t, tb, query.FreqAgg, 10, 30, []string{"a"})
	m := RegionMeasure(freq) // 20
	if got := PriorMean(freq, 0.01); math.Abs(got-0.01*m) > 1e-12 {
		t.Fatalf("freq prior=%v", got)
	}
	if got := Observation(freq, 0.4); math.Abs(got-0.4/m) > 1e-12 {
		t.Fatalf("freq obs=%v", got)
	}
	// Round trip.
	if got := PriorMean(freq, Observation(freq, 0.4)); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("round trip=%v", got)
	}
}

func TestParamsHelpers(t *testing.T) {
	tb := testTable(t)
	p := DefaultParams(tb)
	wcol, _ := tb.Schema().Lookup("week")
	if p.Ells[wcol] != 100 {
		t.Fatalf("default ell=%v", p.Ells[wcol])
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.Scale(0.5)
	if s.Ells[wcol] != 50 || p.Ells[wcol] != 100 {
		t.Fatal("Scale must copy")
	}
	c := p.Clone()
	c.Ells[wcol] = 1
	if p.Ells[wcol] != 100 {
		t.Fatal("Clone aliases")
	}
	bad := Params{Sigma2: -1}
	if bad.Validate() == nil {
		t.Fatal("negative sigma accepted")
	}
	bad2 := Params{Sigma2: 1, Ells: map[int]float64{0: 0}}
	if bad2.Validate() == nil {
		t.Fatal("zero ell accepted")
	}
}

func TestVarianceLargerForWiderFreqRegions(t *testing.T) {
	tb := testTable(t)
	p := params(tb, 10)
	narrow := snip(t, tb, query.FreqAgg, 10, 20, nil)
	wide := snip(t, tb, query.FreqAgg, 10, 60, nil)
	if Variance(wide, p) <= Variance(narrow, p) {
		t.Fatal("FREQ variance must grow with region size")
	}
}

// TestStandingCovarianceMemoBitIdentical is the memo correctness property:
// CovarianceMemo with a carried PairMemo must return the exact bits of the
// uncached Covariance under any interleaving of repeated calls, length-scale
// changes, sigma changes, and region changes. The signature check on the
// five factor inputs is the entire invalidation story, so the test hammers
// the transitions where stale reuse would show: same inputs twice (hit),
// perturbed ell (miss), restored ell (hit again), new snippet pair through
// the same memo (miss).
func TestStandingCovarianceMemoBitIdentical(t *testing.T) {
	tb := testTable(t)
	f := func(seed int64) bool {
		r := randx.New(seed)
		mk := func(kind query.AggKind) *query.Snippet {
			lo := r.Uniform(0, 80)
			hi := lo + r.Uniform(1, 20)
			var regs []string
			if r.Bool(0.5) {
				for _, x := range []string{"a", "b", "c", "d"} {
					if r.Bool(0.5) {
						regs = append(regs, x)
					}
				}
				if regs == nil {
					regs = []string{"a"}
				}
			}
			return snip(t, tb, kind, lo, hi, regs)
		}
		kind := query.AvgAgg
		if r.Bool(0.5) {
			kind = query.FreqAgg
		}
		a, b := mk(kind), mk(kind)
		var m PairMemo
		ells := []float64{20, 20, 7, 20, 1e9} // repeat → hit, change → miss, restore → hit
		for _, ell := range ells {
			p := params(tb, ell)
			if r.Bool(0.3) {
				p.Sigma2 = 1 + r.Uniform(0, 5)
			}
			got := CovarianceMemo(a, b, p, &m)
			want := Covariance(a, b, p)
			if got != want {
				t.Logf("seed %d ell %v: memo %v fresh %v", seed, ell, got, want)
				return false
			}
		}
		// A different pair through the same memo: every factor signature
		// changes, so the cache must miss rather than leak the old values.
		a2, b2 := mk(kind), mk(kind)
		p := params(tb, 20)
		if got, want := CovarianceMemo(a2, b2, p, &m), Covariance(a2, b2, p); got != want {
			t.Logf("seed %d reused memo: %v fresh %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// factorsTable builds a relation with an observed-domain numeric dimension
// u, a declared-domain one w and a categorical one r holding the given
// categories; rows spreads u over [0, span].
func factorsTable(t *testing.T, rows int, span float64, cats []string) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "u", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "w", Kind: storage.Numeric, Role: storage.Dimension, Min: 0, Max: 100},
		{Name: "r", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "m", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("f", schema)
	for i := 0; i < rows; i++ {
		u := span * float64(i) / float64(rows-1)
		row := []storage.Value{storage.Num(u), storage.Num(50), storage.Str(cats[i%len(cats)]), storage.Num(1)}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestFactorsEqualUnit: every value Factors.Gram writes must carry the
// bits of UnitCovariance for that pair, across a sequence of length-scale
// changes (a repeat, one dimension moved, a missing and a non-positive ℓ
// falling back to the domain), for AVG and FREQ lists over tables with
// different domains and dictionaries — one with no rows at all, whose
// categorical dimension drops out and whose ℓ fallback is 1 — with
// unconstrained, repeated, degenerate and empty regions.
func TestFactorsEqualUnit(t *testing.T) {
	tables := []*storage.Table{
		factorsTable(t, 40, 100, []string{"a", "b", "c"}),
		factorsTable(t, 40, 160, []string{"a", "b", "c", "d", "e"}),
	}
	empty := storage.NewTable("empty", tables[0].Schema())
	tables = append(tables, empty)
	ellSeq := []map[int]float64{
		{0: 12, 1: 30},
		{0: 12, 1: 30},
		{0: 4, 1: 30},
		{1: 30},
		{0: -1, 1: 1e9},
		{0: 12, 1: 30},
	}
	f := func(seed int64) bool {
		r := randx.New(seed)
		kind := query.AvgAgg
		if r.Bool(0.4) {
			kind = query.FreqAgg
		}
		n := 2 + r.Intn(30)
		snips := make([]*query.Snippet, n)
		for i := range snips {
			tb := tables[r.Intn(len(tables))]
			if r.Bool(0.3) {
				tb = tables[0] // most snippets on one table
			}
			g := query.NewRegion(tb.Schema())
			for col := 0; col < 2; col++ {
				switch r.Intn(4) {
				case 0: // unconstrained: the table's domain
				case 1:
					lo := float64(r.Intn(4)) * 20
					g.ConstrainNum(col, query.NumRange{Lo: lo, Hi: lo + 15})
				case 2:
					v := float64(r.Intn(3)) * 30
					g.ConstrainNum(col, query.NumRange{Lo: v, Hi: v})
				default:
					lo := r.Uniform(0, 90)
					g.ConstrainNum(col, query.NumRange{Lo: lo, Hi: lo + r.Uniform(0, 20)})
				}
			}
			switch r.Intn(4) {
			case 0:
				g.ConstrainCat(2, query.CatSet{Codes: []int32{}})
			case 1:
				g.ConstrainCat(2, query.CatSet{Codes: []int32{int32(r.Intn(3))}})
			case 2:
				g.ConstrainCat(2, query.CatSet{Codes: []int32{0, 2}})
			}
			snips[i] = &query.Snippet{Kind: kind, Region: g, Table: tb}
		}
		fac := NewFactors(snips)
		gram := make([]float64, n*(n+1)/2)
		for step, ells := range ellSeq {
			fac.Gram(ells, gram)
			for p, i := 0, 0; i < n; i++ {
				for j := 0; j <= i; j, p = j+1, p+1 {
					want := UnitCovariance(snips[j], snips[i], ells)
					if math.Float64bits(gram[p]) != math.Float64bits(want) {
						t.Logf("seed %d step %d pair (%d,%d): factors %v, unit %v", seed, step, j, i, gram[p], want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
