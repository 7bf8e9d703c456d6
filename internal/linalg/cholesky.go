package linalg

import "math"

// Cholesky holds the lower-triangular factor L of a symmetric positive-
// definite matrix A = L·Lᵀ, plus the jitter that had to be added to the
// diagonal to achieve positive-definiteness. Verdict factorizes the past-
// snippet covariance Σ_n once offline (Algorithm 1) and then answers each
// new snippet with two O(n²) triangular solves (Eq. 11–12).
type Cholesky struct {
	n      int
	l      []float64 // row-major lower triangle, full n×n storage
	jitter float64
}

// maxJitterRounds bounds the adaptive-jitter escalation: jitter starts at
// 1e-12 times the largest diagonal entry and grows 10× per round.
const maxJitterRounds = 10

// NewCholesky factorizes a (implicitly symmetric: only the lower triangle
// including the diagonal is read). It returns ErrNotSPD if the matrix stays
// indefinite after the maximum jitter.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, ErrShape
	}
	n := a.Rows()
	scale := a.MaxAbsDiag()
	if scale == 0 {
		scale = 1
	}
	jitter := 0.0
	next := scale * 1e-12
	for round := 0; round <= maxJitterRounds; round++ {
		c := &Cholesky{n: n, l: make([]float64, n*n), jitter: jitter}
		if c.factorize(a) {
			return c, nil
		}
		jitter = next
		next *= 10
	}
	return nil, ErrNotSPD
}

// factorize attempts a standard (unpivoted) Cholesky with the configured
// diagonal jitter; it reports whether every pivot stayed positive.
func (c *Cholesky) factorize(a *Matrix) bool {
	n := c.n
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += c.jitter
			}
			li := c.l[i*n : i*n+j]
			lj := c.l[j*n : j*n+j]
			for k, v := range li {
				sum -= v * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				c.l[i*n+i] = math.Sqrt(sum)
			} else {
				c.l[i*n+j] = sum / c.l[j*n+j]
			}
		}
	}
	return true
}

// Size returns the dimension.
func (c *Cholesky) Size() int { return c.n }

// Jitter reports the diagonal jitter that was applied.
func (c *Cholesky) Jitter() float64 { return c.jitter }

// LAt returns L[i][j] (zero above the diagonal).
func (c *Cholesky) LAt(i, j int) float64 {
	if j > i {
		return 0
	}
	return c.l[i*c.n+j]
}

// SolveInPlace overwrites b with A⁻¹·b using forward and back substitution.
func (c *Cholesky) SolveInPlace(b []float64) error {
	if len(b) != c.n {
		return ErrShape
	}
	n := c.n
	forward(c.l, n, b) // L·y = b
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * b[k]
		}
		b[i] = s / c.l[i*n+i]
	}
	return nil
}

// Solve returns A⁻¹·b without modifying b.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	out := make([]float64, len(b))
	copy(out, b)
	if err := c.SolveInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// QuadForm computes bᵀ·A⁻¹·b, the quantity behind both γ² in Eq. 11 and the
// data-fit term of the Eq. 13 log-likelihood. It needs only the forward
// substitution: with L·y = b, bᵀA⁻¹b = yᵀy.
func (c *Cholesky) QuadForm(b []float64) (float64, error) {
	if len(b) != c.n {
		return 0, ErrShape
	}
	y := make([]float64, c.n)
	copy(y, b)
	forward(c.l, c.n, y)
	return Dot(y, y), nil
}

// BilinearForm computes aᵀ·A⁻¹·b.
func (c *Cholesky) BilinearForm(a, b []float64) (float64, error) {
	x, err := c.Solve(b)
	if err != nil {
		return 0, err
	}
	if len(a) != len(x) {
		return 0, ErrShape
	}
	return Dot(a, x), nil
}

// LogDet returns log|A| = 2·Σ log L[i][i], used by the Eq. 13 likelihood.
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*c.n+i])
	}
	return 2 * s
}

// Extend grows the factorization by one row/column: given the factor of an
// n×n matrix A, it returns the factor of [[A, b],[bᵀ, c]] in O(n²) — the
// incremental synopsis update that keeps Verdict's per-query model
// maintenance within Lemma 2's complexity budget. It returns ErrNotSPD when
// the extended matrix is not positive definite (jitter is applied to the
// new diagonal entry only).
func (c *Cholesky) Extend(b []float64, diag float64) (*Cholesky, error) {
	if len(b) != c.n {
		return nil, ErrShape
	}
	n := c.n
	out := &Cholesky{n: n + 1, l: make([]float64, (n+1)*(n+1)), jitter: c.jitter}
	for i := 0; i < n; i++ {
		copy(out.l[i*(n+1):i*(n+1)+i+1], c.l[i*n:i*n+i+1])
	}
	if err := out.setLastRow(b, diag); err != nil {
		return nil, err
	}
	return out, nil
}

// Replace edits one row/column of the factored matrix in O(n²): given the
// factor of an n×n matrix A, it returns the factor of A with row and column p
// removed and a new row/column appended last, [[A₋ₚ, b],[bᵀ, diag]], where b
// lists the new column against A₋ₚ's rows in their order. The synopsis uses
// it to swap an evicted snippet for its successor, and to re-enter a snippet
// whose diagonal term changed.
//
// Removing p needs no downdate. With L = [[L₁₁,0,0],[l₂₁ᵀ,λ,0],[L₃₁,l₃₂,L₃₃]],
// the rows above p keep their factor, and the trailing block of A₋ₚ is
// L₃₁L₃₁ᵀ + (L₃₃L₃₃ᵀ + l₃₂l₃₂ᵀ): its factor is the rank-one *update* of L₃₃
// by l₃₂, whose Givens rotations only ever grow a pivot, so the removal
// cannot lose definiteness. The append is Extend's, jitter fallback and
// ErrNotSPD included. c is not modified; the result is one fresh factor.
func (c *Cholesky) Replace(p int, b []float64, diag float64) (*Cholesky, error) {
	n := c.n
	if p < 0 || p >= n || len(b) != n-1 {
		return nil, ErrShape
	}
	out := &Cholesky{n: n, l: make([]float64, n*n), jitter: c.jitter}
	for i := 0; i < n; i++ {
		src := c.l[i*n : i*n+i+1]
		switch {
		case i < p:
			copy(out.l[i*n:], src)
		case i > p:
			dst := out.l[(i-1)*n:]
			copy(dst[:p], src[:p])
			copy(dst[p:i], src[p+1:])
		}
	}
	// Rank-one update of the trailing block (new rows and columns p … n−2) by
	// x = l₃₂, row by row: row d applies the rotations of the pivots before
	// it to its own entries and its element of x, then defines the rotation
	// of pivot d. rot holds each pivot's (cos, sin).
	m := n - 1 - p
	rot := make([]float64, 2*m)
	for k := 0; k < m; k++ {
		d := p + k
		row := out.l[d*n : d*n+d+1]
		x := c.l[(d+1)*n+p]
		for j := 0; j < k; j++ {
			cs, sn := rot[2*j], rot[2*j+1]
			e := (row[p+j] + sn*x) / cs
			x = cs*x - sn*e
			row[p+j] = e
		}
		r := math.Hypot(row[d], x)
		rot[2*k], rot[2*k+1] = r/row[d], x/row[d]
		row[d] = r
	}
	if err := out.setLastRow(b, diag); err != nil {
		return nil, err
	}
	return out, nil
}

// setLastRow completes a factor whose leading (n−1)×(n−1) block is in place
// with the row of a new last column b and diagonal diag: l = L⁻¹·b, pivot
// √(diag − l·l). A pivot that is not positive gets jitter on this diagonal
// entry only, escalated like NewCholesky's; beyond that, and for non-finite
// input, it returns ErrNotSPD.
func (c *Cholesky) setLastRow(b []float64, diag float64) error {
	n := c.n - 1
	row := c.l[n*c.n : n*c.n+n]
	copy(row, b)
	forward(c.l, c.n, row)
	rem := diag - Dot(row, row)
	jitter := 0.0
	if !(rem > 0) {
		jitter = math.Abs(diag)*1e-12 + 1e-300
		for round := 0; round <= maxJitterRounds && !(rem+jitter > 0); round++ {
			jitter *= 10
		}
	}
	pivot := rem + jitter
	if !(pivot > 0) || math.IsInf(pivot, 1) {
		return ErrNotSPD
	}
	c.l[n*c.n+n] = math.Sqrt(pivot)
	c.jitter += jitter
	return nil
}

// ForwardInPlace overwrites b with L⁻¹·b. With z = L⁻¹·k and r = L⁻¹·y, the
// forms kᵀA⁻¹k and kᵀA⁻¹y are z·z and z·r: one substitution per right-hand
// side where Solve needs two.
func (c *Cholesky) ForwardInPlace(b []float64) error {
	if len(b) != c.n {
		return ErrShape
	}
	forward(c.l, c.n, b)
	return nil
}

// forward solves L·y = b in place for the leading len(b) rows of a factor
// stored row-major with the given row stride.
func forward(l []float64, stride int, b []float64) {
	for i := range b {
		s := b[i]
		row := l[i*stride : i*stride+i]
		for k, v := range row {
			s -= v * b[k]
		}
		b[i] = s / l[i*stride+i]
	}
}

// Inverse materializes A⁻¹. Algorithm 1 stores Σ⁻¹ in the query synopsis;
// inference itself prefers Solve, but the explicit inverse is exposed for
// the synopsis serialization and for tests.
func (c *Cholesky) Inverse() *Matrix {
	n := c.n
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		if err := c.SolveInPlace(e); err != nil {
			panic(err) // dimensions are consistent by construction
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, e[i])
		}
	}
	inv.Symmetrize()
	return inv
}
