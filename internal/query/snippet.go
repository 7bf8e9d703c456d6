package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// AggKind enumerates Verdict's two internal aggregate computations (§2.3):
// everything the user asks for is reassembled from AVG(A_k) and FREQ(*).
type AggKind uint8

// Internal aggregates.
const (
	// AvgAgg is AVG(expr) over the tuples of the snippet's region.
	AvgAgg AggKind = iota
	// FreqAgg is FREQ(*): the fraction of the relation's tuples inside the
	// region. COUNT(*) = round(FREQ(*) × table cardinality).
	FreqAgg
)

func (k AggKind) String() string {
	if k == AvgAgg {
		return "AVG"
	}
	return "FREQ"
}

// Snippet is Verdict's basic unit of inference (Definition 1): one internal
// aggregate over one selection region; its exact answer is a single scalar.
type Snippet struct {
	Kind AggKind
	// MeasureKey canonically identifies the aggregated expression (empty
	// for FREQ). Snippets form one model per (Kind, MeasureKey) "aggregate
	// function g".
	MeasureKey string
	// Measure evaluates the aggregated expression for a row of the bound
	// table (nil for FREQ).
	Measure func(t *storage.Table, row int) float64
	// Region is the selection region F.
	Region *Region
	// Table is the bound base relation.
	Table *storage.Table
}

// FuncID identifies the aggregate function g a snippet belongs to — the
// unit that owns its own correlation parameters and synopsis quota C_g.
type FuncID struct {
	Kind       AggKind
	MeasureKey string
}

func (f FuncID) String() string {
	if f.Kind == FreqAgg {
		return "FREQ(*)"
	}
	return "AVG(" + f.MeasureKey + ")"
}

// Func returns the snippet's aggregate function identity.
func (s *Snippet) Func() FuncID {
	return FuncID{Kind: s.Kind, MeasureKey: s.MeasureKey}
}

// MeasureColumn resolves the snippet's measure to a bare numeric column when
// possible (the MeasureKey is exactly a column name, the canonical key
// CompileMeasure emits for a ColRef). The vectorized scan path then gathers
// values straight from the column slice instead of calling Measure per row.
func (s *Snippet) MeasureColumn() (int, bool) {
	if s.Kind != AvgAgg || s.Table == nil {
		return 0, false
	}
	col, ok := s.Table.Schema().Lookup(s.MeasureKey)
	if !ok || s.Table.Schema().Col(col).Kind != storage.Numeric {
		return 0, false
	}
	return col, true
}

// Key returns a canonical identity string: aggregate function plus region.
// Identical keys denote identical snippets (used for caching baselines and
// dedup).
func (s *Snippet) Key() string {
	return s.Func().String() + s.Region.Key(s.Table)
}

// CompileMeasure builds a row evaluator for an aggregate argument over the
// given table. Only measure-expression shapes accepted by the checker are
// compilable; anything else errors.
func CompileMeasure(e sqlparse.Expr, t *storage.Table) (fn func(*storage.Table, int) float64, key string, err error) {
	switch v := e.(type) {
	case *sqlparse.ColRef:
		col, ok := t.Schema().Lookup(v.Name)
		if !ok {
			return nil, "", fmt.Errorf("%w: unknown column %s", ErrUnsupported, v.Name)
		}
		if t.Schema().Col(col).Kind != storage.Numeric {
			return nil, "", fmt.Errorf("%w: aggregate over categorical column %s", ErrUnsupported, v.Name)
		}
		c := col
		return func(tb *storage.Table, row int) float64 {
			return tb.NumAt(row, c)
		}, v.Name, nil
	case *sqlparse.NumberLit:
		val := v.Value
		return func(*storage.Table, int) float64 { return val }, trimNum(val), nil
	case *sqlparse.BinaryExpr:
		lf, lk, err := CompileMeasure(v.Left, t)
		if err != nil {
			return nil, "", err
		}
		rf, rk, err := CompileMeasure(v.Right, t)
		if err != nil {
			return nil, "", err
		}
		op := v.Op
		var f func(*storage.Table, int) float64
		switch op {
		case "+":
			f = func(tb *storage.Table, row int) float64 { return lf(tb, row) + rf(tb, row) }
		case "-":
			f = func(tb *storage.Table, row int) float64 { return lf(tb, row) - rf(tb, row) }
		case "*":
			f = func(tb *storage.Table, row int) float64 { return lf(tb, row) * rf(tb, row) }
		case "/":
			f = func(tb *storage.Table, row int) float64 {
				d := rf(tb, row)
				if d == 0 {
					return 0
				}
				return lf(tb, row) / d
			}
		default:
			return nil, "", fmt.Errorf("%w: operator %q in aggregate", ErrUnsupported, op)
		}
		return f, "(" + lk + op + rk + ")", nil
	default:
		return nil, "", fmt.Errorf("%w: expression %s in aggregate", ErrUnsupported, e)
	}
}

func trimNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// BindRegion converts a checked WHERE predicate into a Region over the
// table's dimension attributes. It errors (wrapping ErrUnsupported) on
// shapes the checker would reject, making it safe to call on raw statements
// too.
func BindRegion(where sqlparse.Predicate, t *storage.Table) (*Region, error) {
	g := NewRegion(t.Schema())
	if where == nil {
		return g, nil
	}
	if err := bindPred(where, t, g); err != nil {
		return nil, err
	}
	return g, nil
}

func bindPred(p sqlparse.Predicate, t *storage.Table, g *Region) error {
	switch v := p.(type) {
	case *sqlparse.And:
		if err := bindPred(v.Left, t, g); err != nil {
			return err
		}
		return bindPred(v.Right, t, g)
	case *sqlparse.Between:
		col, kind, err := resolveColumn(v.Arg, t)
		if err != nil {
			return err
		}
		if kind != storage.Numeric {
			return fmt.Errorf("%w: BETWEEN on categorical column", ErrUnsupported)
		}
		lo, err := constNumber(v.Lo)
		if err != nil {
			return err
		}
		hi, err := constNumber(v.Hi)
		if err != nil {
			return err
		}
		g.ConstrainNum(col, NumRange{Lo: lo, Hi: hi})
		return nil
	case *sqlparse.In:
		col, kind, err := resolveColumn(v.Arg, t)
		if err != nil {
			return err
		}
		if kind != storage.Categorical {
			return fmt.Errorf("%w: IN on numeric column", ErrUnsupported)
		}
		set, err := catSetFromValues(v.Values, t, col)
		if err != nil {
			return err
		}
		if v.Negate {
			set = complementCat(set, t.DictOf(col).Size())
		}
		g.ConstrainCat(col, set)
		return nil
	case *sqlparse.Compare:
		return bindCompare(v, t, g)
	case *sqlparse.Or:
		return fmt.Errorf("%w: disjunction", ErrUnsupported)
	case *sqlparse.Not:
		return fmt.Errorf("%w: negation", ErrUnsupported)
	case *sqlparse.Like:
		return fmt.Errorf("%w: LIKE filter", ErrUnsupported)
	default:
		return fmt.Errorf("%w: predicate %s", ErrUnsupported, p)
	}
}

func bindCompare(v *sqlparse.Compare, t *storage.Table, g *Region) error {
	left, right, op := v.Left, v.Right, v.Op
	if isConstant(left) && !isConstant(right) {
		left, right = right, left
		op = flipOp(op)
	}
	if isConstant(left) && isConstant(right) {
		// Constant-folded placeholder (e.g. parser's IS NULL stub): no
		// region effect.
		return nil
	}
	col, kind, err := resolveColumn(left, t)
	if err != nil {
		return err
	}
	if kind == storage.Categorical {
		lit, ok := right.(*sqlparse.StringLit)
		if !ok {
			return fmt.Errorf("%w: categorical comparison with non-string", ErrUnsupported)
		}
		code, found := t.DictOf(col).LookupCode(lit.Value)
		switch op {
		case sqlparse.OpEq:
			if !found {
				g.ConstrainCat(col, CatSet{Codes: []int32{}}) // empty
			} else {
				g.ConstrainCat(col, CatSet{Codes: []int32{code}})
			}
		case sqlparse.OpNe:
			if !found {
				g.ConstrainCat(col, CatSet{}) // excludes nothing
			} else {
				g.ConstrainCat(col, complementCat(CatSet{Codes: []int32{code}}, t.DictOf(col).Size()))
			}
		default:
			return fmt.Errorf("%w: ordering comparison on categorical column", ErrUnsupported)
		}
		return nil
	}
	val, err := constNumber(right)
	if err != nil {
		return err
	}
	inf := math.Inf(1)
	switch op {
	case sqlparse.OpEq:
		g.ConstrainNum(col, NumRange{Lo: val, Hi: val})
	case sqlparse.OpLt:
		g.ConstrainNum(col, NumRange{Lo: -inf, Hi: val, HiOpen: true})
	case sqlparse.OpLe:
		g.ConstrainNum(col, NumRange{Lo: -inf, Hi: val})
	case sqlparse.OpGt:
		g.ConstrainNum(col, NumRange{Lo: val, Hi: inf, LoOpen: true})
	case sqlparse.OpGe:
		g.ConstrainNum(col, NumRange{Lo: val, Hi: inf})
	case sqlparse.OpNe:
		return fmt.Errorf("%w: <> on numeric column", ErrUnsupported)
	}
	// Clip open-ended ranges to the attribute domain so kernel integrals
	// stay finite.
	lo, hi := t.Domain(col)
	r := g.num[col]
	if math.IsInf(r.Lo, -1) {
		r.Lo = lo
		r.LoOpen = false
	}
	if math.IsInf(r.Hi, 1) {
		r.Hi = hi
		r.HiOpen = false
	}
	g.num[col] = r
	return nil
}

func flipOp(op sqlparse.CompareOp) sqlparse.CompareOp {
	switch op {
	case sqlparse.OpLt:
		return sqlparse.OpGt
	case sqlparse.OpLe:
		return sqlparse.OpGe
	case sqlparse.OpGt:
		return sqlparse.OpLt
	case sqlparse.OpGe:
		return sqlparse.OpLe
	default:
		return op
	}
}

func resolveColumn(e sqlparse.Expr, t *storage.Table) (col int, kind storage.Kind, err error) {
	ref, ok := e.(*sqlparse.ColRef)
	if !ok {
		return 0, 0, fmt.Errorf("%w: non-column operand %s", ErrUnsupported, e)
	}
	c, found := t.Schema().Lookup(ref.Name)
	if !found {
		return 0, 0, fmt.Errorf("%w: unknown column %s", ErrUnsupported, ref.Name)
	}
	def := t.Schema().Col(c)
	if def.Role != storage.Dimension {
		return 0, 0, fmt.Errorf("%w: predicate on measure column %s", ErrUnsupported, ref.Name)
	}
	return c, def.Kind, nil
}

func constNumber(e sqlparse.Expr) (float64, error) {
	switch v := e.(type) {
	case *sqlparse.NumberLit:
		return v.Value, nil
	case *sqlparse.BinaryExpr:
		l, err := constNumber(v.Left)
		if err != nil {
			return 0, err
		}
		r, err := constNumber(v.Right)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("%w: division by zero", ErrUnsupported)
			}
			return l / r, nil
		}
		return 0, fmt.Errorf("%w: operator %q", ErrUnsupported, v.Op)
	default:
		return 0, fmt.Errorf("%w: non-numeric constant %s", ErrUnsupported, e)
	}
}

func catSetFromValues(vals []sqlparse.Expr, t *storage.Table, col int) (CatSet, error) {
	codes := make([]int32, 0, len(vals))
	for _, v := range vals {
		lit, ok := v.(*sqlparse.StringLit)
		if !ok {
			return CatSet{}, fmt.Errorf("%w: non-string IN value %s", ErrUnsupported, v)
		}
		if code, found := t.DictOf(col).LookupCode(lit.Value); found {
			codes = append(codes, code)
		}
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	// Dedup.
	out := codes[:0]
	for i, c := range codes {
		if i == 0 || c != codes[i-1] {
			out = append(out, c)
		}
	}
	return CatSet{Codes: out}, nil
}

func complementCat(s CatSet, dictSize int) CatSet {
	if s.Codes == nil {
		return CatSet{Codes: []int32{}}
	}
	out := make([]int32, 0, dictSize-len(s.Codes))
	j := 0
	for c := int32(0); c < int32(dictSize); c++ {
		if j < len(s.Codes) && s.Codes[j] == c {
			j++
			continue
		}
		out = append(out, c)
	}
	return CatSet{Codes: out}
}
