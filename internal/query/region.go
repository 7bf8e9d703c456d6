package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/storage"
)

// ErrUnsupported is wrapped by binder errors for queries outside the
// supported class.
var ErrUnsupported = errors.New("query: unsupported")

// NumRange is a (possibly open-ended) interval constraint on one numeric
// dimension attribute. Lo/Hi default to the attribute domain when the query
// places no constraint (§4.1). The open flags affect only exact row
// matching; the kernel integrals are insensitive to boundary points.
type NumRange struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Contains reports whether v satisfies the range. NaN satisfies nothing:
// zone-map pruning and the vectorized filters both rely on range membership
// being an interval predicate, which NaN's unordered comparisons would break.
func (r NumRange) Contains(v float64) bool {
	if v != v {
		return false
	}
	if r.LoOpen {
		if v <= r.Lo {
			return false
		}
	} else if v < r.Lo {
		return false
	}
	if r.HiOpen {
		if v >= r.Hi {
			return false
		}
	} else if v > r.Hi {
		return false
	}
	return true
}

// Width returns max(Hi-Lo, 0).
func (r NumRange) Width() float64 {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Empty reports whether no value can satisfy the range.
func (r NumRange) Empty() bool {
	if r.Lo > r.Hi {
		return true
	}
	return r.Lo == r.Hi && (r.LoOpen || r.HiOpen)
}

// intersect tightens r with o.
func (r NumRange) intersect(o NumRange) NumRange {
	out := r
	if o.Lo > out.Lo || (o.Lo == out.Lo && o.LoOpen) {
		out.Lo, out.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi < out.Hi || (o.Hi == out.Hi && o.HiOpen) {
		out.Hi, out.HiOpen = o.Hi, o.HiOpen
	}
	return out
}

// CatSet is a constraint on one categorical dimension attribute: the set of
// admissible dictionary codes. A nil Codes slice means "unconstrained"
// (conceptually the universal set, Appendix F.2).
type CatSet struct {
	Codes []int32 // sorted ascending; nil = universal
}

// Universal reports whether the set is unconstrained.
func (c CatSet) Universal() bool { return c.Codes == nil }

// Contains reports whether the code satisfies the set.
func (c CatSet) Contains(code int32) bool {
	if c.Codes == nil {
		return true
	}
	i := sort.Search(len(c.Codes), func(i int) bool { return c.Codes[i] >= code })
	return i < len(c.Codes) && c.Codes[i] == code
}

// Size returns the set cardinality given the attribute's dictionary size.
func (c CatSet) Size(dictSize int) int {
	if c.Codes == nil {
		return dictSize
	}
	return len(c.Codes)
}

// OverlapCount returns |c ∩ o| given the dictionary size (Eq. 16's
// |F_i,k ∩ F_j,k| factor).
func (c CatSet) OverlapCount(o CatSet, dictSize int) int {
	switch {
	case c.Codes == nil && o.Codes == nil:
		return dictSize
	case c.Codes == nil:
		return len(o.Codes)
	case o.Codes == nil:
		return len(c.Codes)
	}
	i, j, n := 0, 0, 0
	for i < len(c.Codes) && j < len(o.Codes) {
		switch {
		case c.Codes[i] == o.Codes[j]:
			n++
			i++
			j++
		case c.Codes[i] < o.Codes[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// intersectCat intersects two categorical sets.
func intersectCat(a, b CatSet) CatSet {
	if a.Codes == nil {
		return b
	}
	if b.Codes == nil {
		return a
	}
	var out []int32
	i, j := 0, 0
	for i < len(a.Codes) && j < len(b.Codes) {
		switch {
		case a.Codes[i] == b.Codes[j]:
			out = append(out, a.Codes[i])
			i++
			j++
		case a.Codes[i] < b.Codes[j]:
			i++
		default:
			j++
		}
	}
	if out == nil {
		out = []int32{} // non-nil: empty, not universal
	}
	return CatSet{Codes: out}
}

// Region is the selection region F_i of one snippet, bound to a table
// schema: one entry per dimension attribute, in schema column order.
// Non-dimension (measure) columns carry no constraint.
type Region struct {
	schema *storage.Schema
	num    map[int]NumRange // keyed by column index; absent = full domain
	cat    map[int]CatSet   // keyed by column index; absent = universal

	// exec caches the finalized scan form (see execForm). It is invalidated
	// by every Constrain call; regions are never copied by value, so the
	// atomic pointer travels with the single instance.
	exec atomic.Pointer[regionExec]
}

// numPred is one numeric constraint in finalized scan form: the bound range
// plus the equivalent closed bounds on adjacent floats, so the vectorized
// filter loop carries two plain comparisons and no math.Nextafter calls.
type numPred struct {
	col    int
	r      NumRange
	lo, hi float64 // closed: lo <= v && v <= hi  ⟺  r.Contains(v) (NaN fails both)
}

// catPred is one categorical constraint in finalized scan form; universal
// (nil-Codes) sets are dropped entirely at finalize time.
type catPred struct {
	col int
	set CatSet
}

// regionExec is a Region's finalized execution form: constraints flattened
// into column-ordered slices with open numeric bounds pre-normalized to
// closed ones. Computed lazily on first scan use and cached until the next
// Constrain call, it keeps bind-time work (Nextafter, map iteration order)
// out of the per-block hot path.
type regionExec struct {
	empty bool // some constraint admits nothing: the region is provably empty
	nums  []numPred
	cats  []catPred
}

// execForm returns the cached finalized form, computing it on first use.
// Racing recomputations are idempotent (the form is a pure function of the
// constraint maps), so the lazy store needs no lock.
func (g *Region) execForm() *regionExec {
	if ex := g.exec.Load(); ex != nil {
		return ex
	}
	ex := &regionExec{}
	cols := make([]int, 0, len(g.num))
	for col := range g.num {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	for _, col := range cols {
		r := g.num[col]
		if r.Empty() {
			ex.empty = true
		}
		lo, hi := r.Lo, r.Hi
		if r.LoOpen {
			lo = math.Nextafter(r.Lo, math.Inf(1))
		}
		if r.HiOpen {
			hi = math.Nextafter(r.Hi, math.Inf(-1))
		}
		ex.nums = append(ex.nums, numPred{col: col, r: r, lo: lo, hi: hi})
	}
	cols = cols[:0]
	for col := range g.cat {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	for _, col := range cols {
		s := g.cat[col]
		if s.Codes == nil {
			continue // universal: satisfied by every row
		}
		if len(s.Codes) == 0 {
			ex.empty = true
		}
		ex.cats = append(ex.cats, catPred{col: col, set: s})
	}
	g.exec.Store(ex)
	return ex
}

// NewRegion returns an unconstrained region over the table's dimensions.
func NewRegion(schema *storage.Schema) *Region {
	return &Region{
		schema: schema,
		num:    make(map[int]NumRange),
		cat:    make(map[int]CatSet),
	}
}

// Clone deep-copies the region.
func (g *Region) Clone() *Region {
	out := NewRegion(g.schema)
	for k, v := range g.num {
		out.num[k] = v
	}
	for k, v := range g.cat {
		out.cat[k] = v
	}
	return out
}

// ConstrainNum intersects column col with the given range. A NaN bound
// means "unbounded" (see sanitizeRange), so Matches, MatchBlock and
// PruneBlock all see the same ordered interval.
func (g *Region) ConstrainNum(col int, r NumRange) {
	r = sanitizeRange(r)
	if cur, ok := g.num[col]; ok {
		g.num[col] = cur.intersect(r)
	} else {
		g.num[col] = r
	}
	g.exec.Store(nil)
}

// ConstrainCat intersects column col with the given set.
func (g *Region) ConstrainCat(col int, s CatSet) {
	if cur, ok := g.cat[col]; ok {
		g.cat[col] = intersectCat(cur, s)
	} else {
		g.cat[col] = s
	}
	g.exec.Store(nil)
}

// NumRangeOf returns the effective range of a numeric dimension column,
// substituting the table's domain when unconstrained (§4.1: "We set the
// range to (min(Ak), max(Ak)) if no constraint is specified").
func (g *Region) NumRangeOf(col int, t *storage.Table) NumRange {
	if r, ok := g.num[col]; ok {
		return r
	}
	lo, hi := t.Domain(col)
	return NumRange{Lo: lo, Hi: hi}
}

// CatSetOf returns the effective value set of a categorical column.
func (g *Region) CatSetOf(col int) CatSet {
	if s, ok := g.cat[col]; ok {
		return s
	}
	return CatSet{}
}

// ConstrainedCols returns the sorted column indices with constraints.
func (g *Region) ConstrainedCols() []int {
	var out []int
	for k := range g.num {
		out = append(out, k)
	}
	for k := range g.cat {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Matches reports whether table row r falls inside the region.
func (g *Region) Matches(t *storage.Table, row int) bool {
	for col, nr := range g.num {
		if !nr.Contains(t.NumAt(row, col)) {
			return false
		}
	}
	for col, cs := range g.cat {
		if !cs.Contains(t.CodesCol(col)[row]) {
			return false
		}
	}
	return true
}

// Key renders a canonical string identity for the region: constrained
// columns in order with their ranges/sets. Used in snippet keys.
func (g *Region) Key(t *storage.Table) string {
	var sb strings.Builder
	for _, col := range g.ConstrainedCols() {
		def := g.schema.Col(col)
		sb.WriteByte('|')
		sb.WriteString(def.Name)
		if def.Kind == storage.Numeric {
			r := g.num[col]
			lb, rb := "[", "]"
			if r.LoOpen {
				lb = "("
			}
			if r.HiOpen {
				rb = ")"
			}
			fmt.Fprintf(&sb, ":%s%g,%g%s", lb, r.Lo, r.Hi, rb)
		} else {
			s := g.cat[col]
			sb.WriteString(":{")
			for i, c := range s.Codes {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(t.DictOf(col).Value(c))
			}
			sb.WriteString("}")
		}
	}
	if sb.Len() == 0 {
		return "|*"
	}
	return sb.String()
}

// NumConstraints returns a copy of the explicit numeric range constraints,
// keyed by column index (serialization support).
func (g *Region) NumConstraints() map[int]NumRange {
	out := make(map[int]NumRange, len(g.num))
	for k, v := range g.num {
		out[k] = v
	}
	return out
}

// CatConstraints returns a copy of the explicit categorical constraints,
// keyed by column index.
func (g *Region) CatConstraints() map[int]CatSet {
	out := make(map[int]CatSet, len(g.cat))
	for k, v := range g.cat {
		out[k] = CatSet{Codes: append([]int32(nil), v.Codes...)}
	}
	return out
}

// sanitizeRange reads a NaN bound as unbounded: a NaN lower bound becomes
// −Inf and a NaN upper bound +Inf. Left as NaN, a bound would pass every
// value in NumRange.Contains (v < NaN is false) yet fail every value in the
// closed-bound filter kernels (v >= NaN is false), and the two evaluators
// would disagree.
func sanitizeRange(r NumRange) NumRange {
	if math.IsNaN(r.Lo) {
		r.Lo = math.Inf(-1)
	}
	if math.IsNaN(r.Hi) {
		r.Hi = math.Inf(1)
	}
	return r
}
