package query

import (
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
	"repro/internal/storage"
)

// randomTable builds a table with two numeric and two categorical dimension
// columns, sized to span multiple blocks with a partial tail.
func randomTable(rng *randx.Source, rows int) *storage.Table {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "y", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "c", Kind: storage.Categorical, Role: storage.Dimension},
		{Name: "d", Kind: storage.Categorical, Role: storage.Dimension},
	})
	tb := storage.NewTable("r", schema)
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	// >64 distinct values in d exercise the mask's modular aliasing.
	for i := 0; i < rows; i++ {
		d := string(rune('A' + rng.Intn(26)))
		if rng.Bool(0.5) {
			d += string(rune('a' + rng.Intn(26)))
		}
		if err := tb.AppendRow([]storage.Value{
			storage.Num(rng.Uniform(-100, 100)),
			storage.Num(rng.Normal(0, 50)),
			storage.Str(cats[rng.PowerLawIndex(len(cats), 1.2)]),
			storage.Str(d),
		}); err != nil {
			panic(err)
		}
	}
	return tb
}

// randomRegion builds a region with random numeric ranges (random open
// flags, sometimes empty or degenerate) and random categorical sets.
func randomRegion(rng *randx.Source, tb *storage.Table) *Region {
	g := NewRegion(tb.Schema())
	if rng.Bool(0.8) {
		lo := rng.Uniform(-120, 120)
		hi := lo + rng.Uniform(-5, 80)
		g.ConstrainNum(0, NumRange{Lo: lo, Hi: hi, LoOpen: rng.Bool(0.3), HiOpen: rng.Bool(0.3)})
	}
	if rng.Bool(0.5) {
		lo := rng.Normal(0, 60)
		g.ConstrainNum(1, NumRange{Lo: lo, Hi: lo + rng.Uniform(0, 100)})
	}
	if rng.Bool(0.6) {
		size := rng.Intn(4)
		set := CatSet{Codes: []int32{}}
		dict := tb.DictOf(2)
		for k := 0; k <= size; k++ {
			if dict.Size() == 0 {
				break
			}
			set = intersectCatUnion(set, int32(rng.Intn(dict.Size())))
		}
		g.ConstrainCat(2, set)
	}
	if rng.Bool(0.4) {
		dict := tb.DictOf(3)
		set := CatSet{Codes: []int32{}}
		for k := 0; k < 12 && dict.Size() > 0; k++ {
			set = intersectCatUnion(set, int32(rng.Intn(dict.Size())))
		}
		g.ConstrainCat(3, set)
	}
	return g
}

// intersectCatUnion adds a code to a set, keeping it sorted and deduped.
func intersectCatUnion(s CatSet, code int32) CatSet {
	for i, c := range s.Codes {
		if c == code {
			return s
		}
		if c > code {
			out := append([]int32{}, s.Codes[:i]...)
			out = append(out, code)
			return CatSet{Codes: append(out, s.Codes[i:]...)}
		}
	}
	return CatSet{Codes: append(append([]int32{}, s.Codes...), code)}
}

// TestMatchBlockAgreesWithMatches is the vectorized-vs-row-at-a-time
// equivalence property: for randomized tables and regions, MatchBlock over
// every block must select exactly the rows Matches accepts, and PruneBlock's
// Empty/Full verdicts must be consistent with the row truth.
func TestMatchBlockAgreesWithMatches(t *testing.T) {
	rng := randx.New(1234)
	rows := storage.BlockSize*2 + 777
	if testing.Short() {
		rows = storage.BlockSize + 100
	}
	for trial := 0; trial < 25; trial++ {
		tb := randomTable(rng.Fork(int64(trial)), rows)
		for rtrial := 0; rtrial < 8; rtrial++ {
			g := randomRegion(rng.Fork(int64(1000+trial*100+rtrial)), tb)
			sel := make([]int32, 0, storage.BlockSize)
			for b := 0; b < tb.NumBlocks(); b++ {
				lo, hi := tb.BlockBounds(b)
				sel = g.MatchBlock(tb, lo, hi, sel)
				// Row-at-a-time truth for this block.
				var want []int32
				for r := lo; r < hi; r++ {
					if g.Matches(tb, r) {
						want = append(want, int32(r))
					}
				}
				if len(sel) != len(want) {
					t.Fatalf("trial %d.%d block %d: vectorized %d rows, row-at-a-time %d",
						trial, rtrial, b, len(sel), len(want))
				}
				for i := range want {
					if sel[i] != want[i] {
						t.Fatalf("trial %d.%d block %d: sel[%d]=%d want %d",
							trial, rtrial, b, i, sel[i], want[i])
					}
				}
				switch g.PruneBlock(tb, b) {
				case BlockEmpty:
					if len(want) != 0 {
						t.Fatalf("trial %d.%d block %d: pruned Empty but %d rows match",
							trial, rtrial, b, len(want))
					}
				case BlockFull:
					if len(want) != hi-lo {
						t.Fatalf("trial %d.%d block %d: pruned Full but %d/%d rows match",
							trial, rtrial, b, len(want), hi-lo)
					}
				}
			}
		}
	}
}

// TestMatchBlockOpenBounds pins the open/closed boundary semantics: a value
// exactly on an open bound is excluded, on a closed bound included.
func TestMatchBlockOpenBounds(t *testing.T) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
	})
	tb := storage.NewTable("t", schema)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		if err := tb.AppendRow([]storage.Value{storage.Num(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		r    NumRange
		want int
	}{
		{NumRange{Lo: 2, Hi: 4}, 3},
		{NumRange{Lo: 2, Hi: 4, LoOpen: true}, 2},
		{NumRange{Lo: 2, Hi: 4, HiOpen: true}, 2},
		{NumRange{Lo: 2, Hi: 4, LoOpen: true, HiOpen: true}, 1},
		{NumRange{Lo: 3, Hi: 3}, 1},
		{NumRange{Lo: 3, Hi: 3, LoOpen: true}, 0},
	} {
		g := NewRegion(schema)
		g.ConstrainNum(0, tc.r)
		sel := g.MatchBlock(tb, 0, tb.Rows(), nil)
		if len(sel) != tc.want {
			t.Errorf("range %+v: matched %d want %d", tc.r, len(sel), tc.want)
		}
	}
}

// TestMatchBlockUnconstrained: an unconstrained region selects every row.
func TestMatchBlockUnconstrained(t *testing.T) {
	rng := randx.New(7)
	tb := randomTable(rng, 100)
	g := NewRegion(tb.Schema())
	sel := g.MatchBlock(tb, 10, 60, nil)
	if len(sel) != 50 || sel[0] != 10 || sel[49] != 59 {
		t.Fatalf("unconstrained sel len=%d", len(sel))
	}
	if got := g.PruneBlock(tb, 0); got != BlockFull {
		t.Fatalf("unconstrained prune=%v want BlockFull", got)
	}
}

func TestMeasureColumn(t *testing.T) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "v", Kind: storage.Numeric, Role: storage.Measure},
	})
	tb := storage.NewTable("t", schema)
	sn := &Snippet{Kind: AvgAgg, MeasureKey: "v", Table: tb}
	col, ok := sn.MeasureColumn()
	if !ok || col != 1 {
		t.Fatalf("MeasureColumn=(%d,%v)", col, ok)
	}
	complex := &Snippet{Kind: AvgAgg, MeasureKey: "(v*x)", Table: tb}
	if _, ok := complex.MeasureColumn(); ok {
		t.Fatal("complex measure must not resolve to a column")
	}
	freq := &Snippet{Kind: FreqAgg, Table: tb}
	if _, ok := freq.MeasureColumn(); ok {
		t.Fatal("FREQ has no measure column")
	}
}

// TestNaNRowsNeverMatch: NaN cells satisfy no range in either evaluation
// mode, and a NaN-seeded zone map must not claim BlockFull.
func TestNaNRowsNeverMatch(t *testing.T) {
	schema := storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
	})
	tb := storage.NewTable("t", schema)
	// NaN first, so the block's zone map is seeded from it.
	vals := []float64{math.NaN(), 1, 2, 3, math.NaN(), 4}
	for _, v := range vals {
		if err := tb.AppendRow([]storage.Value{storage.Num(v)}); err != nil {
			t.Fatal(err)
		}
	}
	g := NewRegion(schema)
	g.ConstrainNum(0, NumRange{Lo: 0, Hi: 10})
	if d := g.PruneBlock(tb, 0); d != BlockPartial {
		t.Fatalf("NaN-seeded zone pruned %v, want BlockPartial", d)
	}
	sel := g.MatchBlock(tb, 0, tb.Rows(), nil)
	if len(sel) != 4 {
		t.Fatalf("matched %d rows, want 4 (NaN rows excluded)", len(sel))
	}
	for r := 0; r < tb.Rows(); r++ {
		want := !math.IsNaN(vals[r])
		if got := g.Matches(tb, r); got != want {
			t.Fatalf("row %d (v=%v): Matches=%v want %v", r, vals[r], got, want)
		}
	}
}

// edgeValues are the float64 values the numeric kernels must get right both
// as cells and as bounds. NaN comes first so that, as a cell, it seeds the
// zone maps of every column it appears in.
var edgeValues = []float64{
	math.NaN(),
	math.Inf(-1), math.Inf(1),
	-math.MaxFloat64, math.MaxFloat64,
	-1, 1,
	-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0,
}

// edgeTable holds every ordered pair of cells as one row of two numeric
// dimension columns x and y, all in one block.
func edgeTable(t *testing.T, cells []float64) *storage.Table {
	t.Helper()
	tb := storage.NewTable("edge", storage.MustSchema([]storage.ColumnDef{
		{Name: "x", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "y", Kind: storage.Numeric, Role: storage.Dimension},
	}))
	for _, x := range cells {
		for _, y := range cells {
			if err := tb.AppendRow([]storage.Value{storage.Num(x), storage.Num(y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tb
}

// TestNumericKernelEdgeValues crosses every edge value as a lower and upper
// bound with all four open/closed combinations, over a table whose cells are
// those same values. With one constrained column the range reaches
// filterNumInto; with two, x is bounded to the closed real line (which drops
// NaN x cells) and the range on y reaches filterNum. MatchBlock must select
// exactly the rows Matches admits, and PruneBlock's Empty/Full verdicts must
// hold for them. The table is built three times: with NaN cells, whose first
// row seeds the zone maps with NaN; with NaN cells that follow finite ones in
// the block, which must poison the zone just the same; and with finite cells
// only, so that the zone-map verdicts are live.
func TestNumericKernelEdgeValues(t *testing.T) {
	tables := []struct {
		name string
		tb   *storage.Table
	}{
		{"with NaN cells", edgeTable(t, edgeValues)},
		{"with NaN cells mid-block", edgeTable(t, append(slices.Clone(edgeValues[1:]), math.NaN()))},
		{"finite cells", edgeTable(t, edgeValues[1:])},
	}
	var sel []int32
	for _, tt := range tables {
		tb := tt.tb
		for _, cols := range []int{1, 2} {
			for _, lo := range edgeValues {
				for _, hi := range edgeValues {
					for open := 0; open < 4; open++ {
						r := NumRange{Lo: lo, Hi: hi, LoOpen: open&1 != 0, HiOpen: open&2 != 0}
						g := NewRegion(tb.Schema())
						if cols == 1 {
							g.ConstrainNum(0, r)
						} else {
							g.ConstrainNum(0, NumRange{Lo: math.Inf(-1), Hi: math.Inf(1)})
							g.ConstrainNum(1, r)
						}
						var want []int32
						for row := 0; row < tb.Rows(); row++ {
							if g.Matches(tb, row) {
								want = append(want, int32(row))
							}
						}
						sel = g.MatchBlock(tb, 0, tb.Rows(), sel)
						if !slices.Equal(sel, want) {
							t.Errorf("%s, %d column(s), range %+v: MatchBlock selects %d rows, Matches admits %d",
								tt.name, cols, r, len(sel), len(want))
						}
						switch g.PruneBlock(tb, 0) {
						case BlockEmpty:
							if len(want) != 0 {
								t.Errorf("%s, %d column(s), range %+v: pruned Empty but %d rows match",
									tt.name, cols, r, len(want))
							}
						case BlockFull:
							if len(want) != tb.Rows() {
								t.Errorf("%s, %d column(s), range %+v: pruned Full but %d/%d rows match",
									tt.name, cols, r, len(want), tb.Rows())
							}
						}
					}
				}
			}
		}
	}
}

// TestPruneBlockEmptyRange: an empty numeric range prunes every block.
func TestPruneBlockEmptyRange(t *testing.T) {
	rng := randx.New(9)
	tb := randomTable(rng, 200)
	g := NewRegion(tb.Schema())
	g.ConstrainNum(0, NumRange{Lo: 5, Hi: 5, LoOpen: true})
	if g.PruneBlock(tb, 0) != BlockEmpty {
		t.Fatal("degenerate open range must prune")
	}
	if sel := g.MatchBlock(tb, 0, tb.Rows(), nil); len(sel) != 0 {
		t.Fatalf("empty range matched %d rows", len(sel))
	}
	g2 := NewRegion(tb.Schema())
	g2.ConstrainNum(0, NumRange{Lo: math.Inf(1), Hi: math.Inf(-1)})
	if g2.PruneBlock(tb, 0) != BlockEmpty {
		t.Fatal("inverted range must prune")
	}
}
