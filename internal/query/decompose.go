package query

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// DefaultNmax bounds how many result-set groups get snippets per query
// (§2.3: "Verdict only generates snippets for Nmax (1,000 by default)
// groups").
const DefaultNmax = 1000

// GroupValue is one grouping column's value in a result row.
type GroupValue struct {
	Col int // column index in the bound table
	// Str/Num carry the value according to the column kind.
	Str string
	Num float64
}

// AppendGroupID appends an unambiguous identity for a group row to dst:
// equal identities mean equal values in every grouping column, whatever
// separators the values contain (each string is length-prefixed).
func AppendGroupID(dst []byte, g []GroupValue) []byte {
	for _, v := range g {
		dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.Str...)
		dst = strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
		dst = append(dst, '|')
	}
	return dst
}

// UserAggregate describes one user-facing aggregate of a query after
// binding: which internal snippets compose it (§2.3's aggregate
// computation). AVG needs only the Avg snippet; COUNT only the Freq
// snippet; SUM needs both.
type UserAggregate struct {
	Agg sqlparse.AggFunc
	// Avg/Freq are indexes into the decomposition's Snippets slice, or -1.
	Avg, Freq int
}

// Decomposition is the snippet set for one (query, group-row) combination.
type Decomposition struct {
	// Group identifies the result row this decomposition belongs to (empty
	// for ungrouped queries).
	Group []GroupValue
	// Snippets lists the distinct internal snippets needed.
	Snippets []*Snippet
	// Aggregates maps each user aggregate (in select-list order) onto
	// snippet indexes.
	Aggregates []UserAggregate
}

// Decompose converts a checked, supported statement into per-group snippet
// sets, following Figure 3: one snippet per (aggregate function, group
// value) with the group value folded into the region as an equality
// predicate. groups lists the group rows of the answer set (a single empty
// group for ungrouped queries); at most nmax groups receive snippets
// (DefaultNmax when nmax<=0).
func Decompose(stmt *sqlparse.SelectStmt, t *storage.Table, groups [][]GroupValue, nmax int) ([]*Decomposition, error) {
	if nmax <= 0 {
		nmax = DefaultNmax
	}
	base, err := BindRegion(stmt.Where, t)
	if err != nil {
		return nil, err
	}
	if len(groups) == 0 {
		groups = [][]GroupValue{nil}
	}
	if len(groups) > nmax {
		groups = groups[:nmax]
	}

	out := make([]*Decomposition, 0, len(groups))
	for _, grp := range groups {
		region := base.Clone()
		for _, gv := range grp {
			def := t.Schema().Col(gv.Col)
			if def.Kind == storage.Categorical {
				code, found := t.DictOf(gv.Col).LookupCode(gv.Str)
				if !found {
					region.ConstrainCat(gv.Col, CatSet{Codes: []int32{}})
				} else {
					region.ConstrainCat(gv.Col, CatSet{Codes: []int32{code}})
				}
			} else {
				region.ConstrainNum(gv.Col, NumRange{Lo: gv.Num, Hi: gv.Num})
			}
		}

		d := &Decomposition{Group: grp}
		freqIdx := -1
		avgIdx := map[string]int{} // measure key -> snippet index
		ensureFreq := func() int {
			if freqIdx < 0 {
				d.Snippets = append(d.Snippets, &Snippet{
					Kind:   FreqAgg,
					Region: region,
					Table:  t,
				})
				freqIdx = len(d.Snippets) - 1
			}
			return freqIdx
		}
		ensureAvg := func(e sqlparse.Expr) (int, error) {
			fn, key, err := CompileMeasure(e, t)
			if err != nil {
				return -1, err
			}
			if i, ok := avgIdx[key]; ok {
				return i, nil
			}
			d.Snippets = append(d.Snippets, &Snippet{
				Kind:       AvgAgg,
				MeasureKey: key,
				Measure:    fn,
				Region:     region,
				Table:      t,
			})
			avgIdx[key] = len(d.Snippets) - 1
			return avgIdx[key], nil
		}

		for _, item := range stmt.Items {
			switch item.Agg {
			case sqlparse.AggNone:
				continue
			case sqlparse.AggAvg:
				i, err := ensureAvg(item.Expr)
				if err != nil {
					return nil, err
				}
				d.Aggregates = append(d.Aggregates, UserAggregate{Agg: item.Agg, Avg: i, Freq: -1})
			case sqlparse.AggCount:
				d.Aggregates = append(d.Aggregates, UserAggregate{Agg: item.Agg, Avg: -1, Freq: ensureFreq()})
			case sqlparse.AggSum:
				i, err := ensureAvg(item.Expr)
				if err != nil {
					return nil, err
				}
				d.Aggregates = append(d.Aggregates, UserAggregate{Agg: item.Agg, Avg: i, Freq: ensureFreq()})
			default:
				return nil, fmt.Errorf("%w: aggregate %s", ErrUnsupported, item.Agg)
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// ScalarEstimate is a (value, expected standard error) pair — the (θ, β)
// the AQP engine produces for one snippet, and the shape every downstream
// computation preserves.
type ScalarEstimate struct {
	Value  float64
	StdErr float64
	// PopErr is the expected deviation of the *finite-population* exact
	// answer from the underlying distribution's mean over the region
	// (≈ s/√N for N matching base-relation rows). The paper works at
	// 100 GB+ scale where this is negligible; at this repository's
	// reduced table sizes it is not, so the engine reports it and
	// Verdict adds it as a per-snippet variance nugget (see DESIGN.md).
	PopErr float64
}

// ComposeAggregate reassembles a user aggregate from internal snippet
// estimates (§2.3): AVG passes through; COUNT(*) = FREQ×|r| rounded; SUM =
// AVG × COUNT with first-order error propagation for the product of two
// (approximately independent) estimates.
func ComposeAggregate(agg sqlparse.AggFunc, avg, freq ScalarEstimate, tableRows int) (ScalarEstimate, error) {
	n := float64(tableRows)
	switch agg {
	case sqlparse.AggAvg:
		return avg, nil
	case sqlparse.AggCount:
		return ScalarEstimate{
			Value:  roundNonNeg(freq.Value * n),
			StdErr: Saturate(freq.StdErr * n),
		}, nil
	case sqlparse.AggSum:
		cnt := freq.Value * n
		cntErr := Saturate(freq.StdErr * n)
		val := avg.Value * cnt
		// Var(X·Y) ≈ Y²Var(X) + X²Var(Y) for weakly dependent X, Y.
		variance := cnt*cnt*avg.StdErr*avg.StdErr + avg.Value*avg.Value*cntErr*cntErr
		return ScalarEstimate{Value: val, StdErr: Saturate(sqrtNonNeg(variance))}, nil
	default:
		return ScalarEstimate{}, fmt.Errorf("%w: aggregate %s not composable", ErrUnsupported, agg)
	}
}

// Saturate caps an error at math.MaxFloat64, the error a sanitized
// estimate with no usable rows carries: scaling it — a COUNT's ×|r|, a
// confidence half-width's ×α — must not overflow to +Inf, which JSON cannot
// carry and whose differences are NaN.
func Saturate(err float64) float64 { return math.Min(err, math.MaxFloat64) }

func roundNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return float64(int64(v + 0.5))
}

func sqrtNonNeg(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
