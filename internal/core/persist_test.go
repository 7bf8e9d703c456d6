package core

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/storage"
)

// multiDimTable builds a table with numeric + categorical dimensions and a
// derived-measure-friendly schema for persistence tests.
func multiDimTable(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension, Min: 0, Max: 100},
		{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "price", Kind: storage.Numeric, Role: storage.Measure},
		{Name: "qty", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("shop", schema)
	rng := randx.New(21)
	regions := []string{"e", "w", "n", "s"}
	for i := 0; i < 500; i++ {
		if err := tb.AppendRow([]storage.Value{
			storage.Num(rng.Uniform(0, 100)),
			storage.Str(regions[rng.Intn(4)]),
			storage.Num(rng.Uniform(1, 10)),
			storage.Num(float64(1 + rng.Intn(5))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// buildSnippet makes an AVG(price*qty) snippet over x∈[lo,hi], region set.
func buildSnippet(t *testing.T, tb *storage.Table, lo, hi float64, regions []string, freq bool) *query.Snippet {
	t.Helper()
	g := query.NewRegion(tb.Schema())
	xcol, _ := tb.Schema().Lookup("x")
	g.ConstrainNum(xcol, query.NumRange{Lo: lo, Hi: hi, HiOpen: true})
	if regions != nil {
		rcol, _ := tb.Schema().Lookup("region")
		var codes []int32
		for _, r := range regions {
			if c, ok := tb.DictOf(rcol).LookupCode(r); ok {
				codes = append(codes, c)
			}
		}
		g.ConstrainCat(rcol, query.CatSet{Codes: codes})
	}
	if freq {
		return &query.Snippet{Kind: query.FreqAgg, Region: g, Table: tb}
	}
	pcol, _ := tb.Schema().Lookup("price")
	qcol, _ := tb.Schema().Lookup("qty")
	return &query.Snippet{
		Kind:       query.AvgAgg,
		MeasureKey: "(price*qty)",
		Measure: func(t *storage.Table, row int) float64 {
			return t.NumAt(row, pcol) * t.NumAt(row, qcol)
		},
		Region: g,
		Table:  tb,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := multiDimTable(t)
	rng := randx.New(3)
	v := New(tb, Config{})
	for i := 0; i < 15; i++ {
		lo := rng.Uniform(0, 90)
		v.Record(buildSnippet(t, tb, lo, lo+8, []string{"e", "w"}, i%3 == 0),
			query.ScalarEstimate{Value: rng.Normal(20, 3), StdErr: 0.4, PopErr: 0.1})
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), tb, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Same function set, same snippet counts, same parameters.
	if len(loaded.FuncIDs()) != len(v.FuncIDs()) {
		t.Fatalf("func ids: %v vs %v", loaded.FuncIDs(), v.FuncIDs())
	}
	if loaded.SnippetCount() != v.SnippetCount() {
		t.Fatalf("snippets: %d vs %d", loaded.SnippetCount(), v.SnippetCount())
	}
	for _, id := range v.FuncIDs() {
		p1, _ := v.Params(id)
		p2, ok := loaded.Params(id)
		if !ok {
			t.Fatalf("missing params for %v", id)
		}
		if math.Abs(p1.Sigma2-p2.Sigma2) > 1e-12 {
			t.Fatalf("%v sigma2: %v vs %v", id, p1.Sigma2, p2.Sigma2)
		}
		for col, ell := range p1.Ells {
			if math.Abs(p2.Ells[col]-ell) > 1e-12 {
				t.Fatalf("%v ell[%d]: %v vs %v", id, col, p2.Ells[col], ell)
			}
		}
		if k1, k2 := v.SynopsisKeys(id), loaded.SynopsisKeys(id); strings.Join(k1, ";") != strings.Join(k2, ";") {
			t.Fatalf("%v keys differ:\n%v\n%v", id, k1, k2)
		}
	}

	// Inference must be identical after the round trip.
	sn := buildSnippet(t, tb, 30, 45, []string{"e"}, false)
	raw := query.ScalarEstimate{Value: 19, StdErr: 0.8}
	r1 := v.Infer(sn, raw)
	r2 := loaded.Infer(sn, raw)
	if math.Abs(r1.Answer-r2.Answer) > 1e-9 || math.Abs(r1.Err-r2.Err) > 1e-9 {
		t.Fatalf("inference diverged after load:\n%+v\n%+v", r1, r2)
	}
}

func TestLoadRejectsBadSnapshots(t *testing.T) {
	tb := multiDimTable(t)
	if _, err := Load(strings.NewReader("{"), tb, Config{}); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99, "table": "shop"}`), tb, Config{}); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "table": "other"}`), tb, Config{}); err == nil {
		t.Fatal("wrong table accepted")
	}
	bad := `{"version":1,"table":"shop","models":[{"kind":"AVG","measure_key":"nosuch","entries":[]}]}`
	if _, err := Load(strings.NewReader(bad), tb, Config{}); err == nil {
		t.Fatal("unknown measure column accepted")
	}
	bad2 := `{"version":1,"table":"shop","models":[{"kind":"WAT","entries":[]}]}`
	if _, err := Load(strings.NewReader(bad2), tb, Config{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad3 := `{"version":1,"table":"shop","models":[{"kind":"FREQ","entries":[{"theta":1,"beta":1,"num":{"ghost":{"lo":0,"hi":1}}}]}]}`
	if _, err := Load(strings.NewReader(bad3), tb, Config{}); err == nil {
		t.Fatal("unknown region column accepted")
	}

	// Every cut of a saved two-model snapshot that drops a non-whitespace
	// byte fails to load, and a System whose load failed keeps its synopsis:
	// same snippet count, and the same Execute answer as a twin that never
	// saw the cuts.
	sys, twin := systemFixture(t, 4000, 0.5), systemFixture(t, 4000, 0.5)
	for _, sql := range []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20",
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 30 AND 40",
		"SELECT COUNT(*) FROM sales WHERE week < 26",
	} {
		for _, s := range []*System{sys, twin} {
			if _, err := s.Execute(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(sys.Verdict().FuncIDs()); n < 2 {
		t.Fatalf("snapshot holds %d models, want at least 2", n)
	}
	var buf bytes.Buffer
	if err := sys.SaveSynopsis(&buf); err != nil {
		t.Fatal(err)
	}
	snap, count, cuts := buf.Bytes(), sys.Verdict().SnippetCount(), 0
	for k := range snap {
		if len(bytes.TrimSpace(snap[k:])) == 0 {
			continue
		}
		cuts++
		if err := sys.LoadSynopsis(bytes.NewReader(snap[:k])); err == nil {
			t.Fatalf("snapshot cut at byte %d of %d loaded", k, len(snap))
		}
		if got := sys.Verdict().SnippetCount(); got != count {
			t.Fatalf("failed load of the cut at byte %d changed the synopsis: %d snippets, want %d", k, got, count)
		}
	}
	if cuts < 100 {
		t.Fatalf("only %d cuts of a %d-byte snapshot", cuts, len(snap))
	}
	// Whole snapshots that are still wrong: content after the object, and
	// an entry's standard error or nugget flipped negative (Save writes
	// neither).
	for name, bad := range badSnapshots(t, snap) {
		if err := sys.LoadSynopsis(bytes.NewReader(bad)); err == nil {
			t.Fatalf("snapshot with %s loaded", name)
		}
		if got := sys.Verdict().SnippetCount(); got != count {
			t.Fatalf("failed load of the snapshot with %s changed the synopsis: %d snippets, want %d", name, got, count)
		}
	}
	probe := "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 12 AND 18"
	got, err := sys.Execute(probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Execute(probe)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Rows[0].Cells[0], want.Rows[0].Cells[0]; g.Improved != w.Improved || g.Raw != w.Raw {
		t.Fatalf("answer after failed loads %+v/%+v, want %+v/%+v", g.Improved, g.Raw, w.Improved, w.Raw)
	}
}

// badSnapshots derives from a saved snapshot the whole-object edits Load
// must refuse: trailing content, and the first entry's beta and nugget
// made negative.
func badSnapshots(t testing.TB, snap []byte) map[string][]byte {
	t.Helper()
	negate := func(field string) []byte {
		key := []byte(`"` + field + `": `)
		i := bytes.Index(snap, key)
		if i < 0 {
			t.Fatalf("snapshot has no %s field", field)
		}
		i += len(key)
		return append(append(append([]byte(nil), snap[:i]...), '-'), snap[i:]...)
	}
	return map[string][]byte{
		"trailing content":  append(append([]byte(nil), snap...), `{"garbage": 1}`...),
		"a negative beta":   negate("beta"),
		"a negative nugget": negate("nugget"),
	}
}

func TestSaveLoadPinnedParams(t *testing.T) {
	tb := multiDimTable(t)
	v := New(tb, Config{})
	xcol, _ := tb.Schema().Lookup("x")
	id := query.FuncID{Kind: query.FreqAgg}
	v.SetParams(id, kernelParamsForTest(xcol))
	v.Record(buildSnippet(t, tb, 10, 20, nil, true), query.ScalarEstimate{Value: 0.1, StdErr: 0.01})

	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Pinned parameters survive and stay pinned (Train must not overwrite).
	if err := loaded.Train(); err != nil {
		t.Fatal(err)
	}
	p, _ := loaded.Params(id)
	if p.Ells[xcol] != 42 {
		t.Fatalf("pinned ell lost: %v", p.Ells[xcol])
	}
}

func kernelParamsForTest(xcol int) kernel.Params {
	return kernel.Params{Sigma2: 2, Ells: map[int]float64{xcol: 42}}
}

// fixtureVerdict rebuilds the workload behind testdata/synopsis_shards8.json:
// six AVG functions and one FREQ function, recorded and trained.
func fixtureVerdict(t *testing.T) (*Verdict, *storage.Table) {
	tb := multiMeasureTable(t, 4000, 6)
	v := New(tb, Config{})
	recordWorkload(t, v, tb, 6, 8)
	rng := randx.New(29)
	for k := 0; k < 8; k++ {
		lo := rng.Uniform(0, 90)
		w := rng.Uniform(3, 8)
		v.Record(freqSnippet(tb, lo, lo+w), query.ScalarEstimate{Value: w / 100 * (1 + rng.Normal(0, 0.05)), StdErr: 0.002})
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	return v, tb
}

// A snapshot written when the synopsis was split into shards carries a
// "shards" count. It must still load, infer bit for bit like the workload
// it was saved from, and re-save as the same bytes without that line.
func TestLoadShardedSnapshot(t *testing.T) {
	fixture, err := os.ReadFile("testdata/synopsis_shards8.json")
	if err != nil {
		t.Fatal(err)
	}
	built, tb := fixtureVerdict(t)
	loaded, err := Load(bytes.NewReader(fixture), tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.FuncIDs(), built.FuncIDs(); !slices.Equal(got, want) {
		t.Fatalf("functions %v, want %v", got, want)
	}
	for _, id := range built.FuncIDs() {
		bp, _ := built.Params(id)
		lp, _ := loaded.Params(id)
		if !sameParams(bp, lp) {
			t.Fatalf("%v: loaded params %+v, built %+v", id, lp, bp)
		}
	}
	probes := []struct {
		sn  *query.Snippet
		raw query.ScalarEstimate
	}{{freqSnippet(tb, 40, 46), query.ScalarEstimate{Value: 0.07, StdErr: 0.01}}}
	for i := 0; i < 6; i++ {
		probes = append(probes, struct {
			sn  *query.Snippet
			raw query.ScalarEstimate
		}{measureSnippet(tb, i, 40, 46), query.ScalarEstimate{Value: float64(i+1)*10 + 52, StdErr: 0.8}})
	}
	for _, p := range probes {
		if li, bi := loaded.Infer(p.sn, p.raw), built.Infer(p.sn, p.raw); !sameImproved(li, bi) {
			t.Fatalf("%v: loaded infers %+v, built %+v", p.sn.Func(), li, bi)
		}
	}

	want := bytes.Replace(fixture, []byte(" \"shards\": 8,\n"), nil, 1)
	if bytes.Equal(want, fixture) {
		t.Fatal("fixture carries no shards line")
	}
	for name, v := range map[string]*Verdict{"loaded": loaded, "built": built} {
		var buf bytes.Buffer
		if err := v.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s re-save differs from the fixture minus its shards line", name)
		}
	}
}

// FuzzLoad feeds LoadSynopsis mutated snapshots (the checked-in corpus is a
// saved two-model snapshot and the edits of badSnapshots). Nothing may
// panic; a failed load leaves the live synopsis as it was — its snippet
// count and the bits of a fixed probe's answer — and a successful one
// answers the probe with no NaN and an error no larger than the raw one
// (Theorem 1).
func FuzzLoad(f *testing.F) {
	sys := systemFixture(f, 4000, 0.5)
	for _, sql := range []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20",
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 30 AND 40",
		"SELECT COUNT(*) FROM sales WHERE week < 26",
	} {
		if _, err := sys.Execute(sql); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.SaveSynopsis(&buf); err != nil {
		f.Fatal(err)
	}
	orig := buf.Bytes()
	// The baseline is the saved snapshot as loaded: every successful fuzz
	// load is rolled back to it.
	if err := sys.LoadSynopsis(bytes.NewReader(orig)); err != nil {
		f.Fatal(err)
	}
	tb := sys.Engine().Base()
	measure, key, err := recompileMeasure("revenue", tb)
	if err != nil {
		f.Fatal(err)
	}
	week, _ := tb.Schema().Lookup("week")
	region := query.NewRegion(tb.Schema())
	region.ConstrainNum(week, query.NumRange{Lo: 12, Hi: 18})
	probe := &query.Snippet{Kind: query.AvgAgg, MeasureKey: key, Measure: measure, Region: region, Table: tb}
	raw := query.ScalarEstimate{Value: 85, StdErr: 3}
	count, want := sys.Verdict().SnippetCount(), sys.Verdict().Infer(probe, raw)
	if !want.UsedModel {
		f.Fatal("the probe ignores the synopsis: a changed synopsis would not show")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := sys.LoadSynopsis(bytes.NewReader(data)); err != nil {
			got := sys.Verdict().Infer(probe, raw)
			if n := sys.Verdict().SnippetCount(); n != count ||
				math.Float64bits(got.Answer) != math.Float64bits(want.Answer) ||
				math.Float64bits(got.Err) != math.Float64bits(want.Err) {
				t.Fatalf("failed load (%v) changed the synopsis: %d snippets, probe %v ± %v; want %d, %v ± %v",
					err, n, got.Answer, got.Err, count, want.Answer, want.Err)
			}
			return
		}
		got := sys.Verdict().Infer(probe, raw)
		if math.IsNaN(got.Answer) || !(got.Err <= raw.StdErr) {
			t.Fatalf("loaded snapshot answers the probe %v ± %v, raw %v ± %v", got.Answer, got.Err, raw.Value, raw.StdErr)
		}
		if err := sys.LoadSynopsis(bytes.NewReader(orig)); err != nil {
			t.Fatal(err)
		}
	})
}
