package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Test-only matrix and vector helpers: the oracles the factorization tests
// build their inputs and check their answers with.

// newMatrixFrom builds a matrix from a row-major slice of slices.
func newMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// submatrix copies rows [0,r) and columns [0,c) into a new matrix — the
// Σ_n "leading block" extraction the paper's block forms use.
func (m *Matrix) submatrix(r, c int) *Matrix {
	if r > m.rows || c > m.cols {
		panic(ErrShape)
	}
	out := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		copy(out.data[i*c:(i+1)*c], m.data[i*m.cols:i*m.cols+c])
	}
	return out
}

// mulVec computes y = M·x.
func (m *Matrix) mulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, ErrShape
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// mul computes the product M·N.
func (m *Matrix) mul(n *Matrix) (*Matrix, error) {
	if m.cols != n.rows {
		return nil, ErrShape
	}
	out := NewMatrix(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*n.cols : (i+1)*n.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			nrow := n.data[k*n.cols : (k+1)*n.cols]
			for j, nv := range nrow {
				orow[j] += mv * nv
			}
		}
	}
	return out, nil
}

// transpose returns Mᵀ.
func (m *Matrix) transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// vecSub returns a-b as a new vector.
func vecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// norm2 is the Euclidean norm.
func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At broken")
	}
	m.Add(0, 0, 2)
	if m.At(0, 0) != 3 {
		t.Fatal("Add broken")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dims broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 3 {
		t.Fatal("Clone aliases data")
	}
}

func TestNewMatrixFromAndRow(t *testing.T) {
	m := newMatrixFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("newMatrixFrom broken")
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatal("Row broken")
	}
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Fatal("Row must copy")
	}
}

func TestMulVec(t *testing.T) {
	m := newMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y, err := m.mulVec([]float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec=%v", y)
		}
	}
	if _, err := m.mulVec([]float64{1}); err == nil {
		t.Fatal("shape mismatch not caught")
	}
}

func TestMulAndTranspose(t *testing.T) {
	a := newMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := newMatrixFrom([][]float64{{0, 1}, {1, 0}})
	ab, err := a.mul(b)
	if err != nil {
		t.Fatal(err)
	}
	if ab.At(0, 0) != 2 || ab.At(0, 1) != 1 || ab.At(1, 0) != 4 || ab.At(1, 1) != 3 {
		t.Fatalf("Mul wrong: %v", ab)
	}
	at := a.transpose()
	if at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Fatal("Transpose wrong")
	}
}

func TestSubmatrix(t *testing.T) {
	m := newMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.submatrix(2, 2)
	if s.Rows() != 2 || s.Cols() != 2 || s.At(1, 1) != 5 {
		t.Fatalf("Submatrix wrong: %v", s)
	}
	s.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Submatrix must copy")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 {
		t.Fatal("Dot")
	}
	if norm2(a) != 5 {
		t.Fatal("Norm2")
	}
	y := []float64{7, 9}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Fatal("Scale")
	}
	d := vecSub([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatal("VecSub")
	}
}

// randomSPD builds L·Lᵀ + eps·I for a random lower-triangular L, guaranteeing
// a positive-definite test matrix.
func randomSPD(r *rand.Rand, n int) *Matrix {
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, r.NormFloat64())
		}
		l.Set(i, i, 0.5+r.Float64()*2)
	}
	a, _ := l.mul(l.transpose())
	for i := 0; i < n; i++ {
		a.Add(i, i, 1e-6)
	}
	return a
}

func TestCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := randomSPD(r, n)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		// L·Lᵀ must reconstruct A (within jitter tolerance).
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k <= j; k++ {
					s += c.LAt(i, k) * c.LAt(j, k)
				}
				want := a.At(i, j)
				if i == j {
					want += c.Jitter()
				}
				if math.Abs(s-want) > 1e-8*(1+math.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		a := randomSPD(r, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b, err := a.mulVec(x)
		if err != nil {
			return false
		}
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		got, err := c.Solve(b)
		if err != nil {
			return false
		}
		return norm2(vecSub(got, x)) <= 1e-6*(1+norm2(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyQuadFormMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 12
	a := randomSPD(r, n)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	qf, err := c.QuadForm(b)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qf-Dot(b, x)) > 1e-8*(1+math.Abs(qf)) {
		t.Fatalf("QuadForm=%v Dot=%v", qf, Dot(b, x))
	}
	// Positive definiteness: quadratic form of nonzero vector is positive.
	if qf <= 0 {
		t.Fatalf("quad form not positive: %v", qf)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(4, 9) has determinant 36.
	a := newMatrixFrom([][]float64{{4, 0}, {0, 9}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LogDet(); math.Abs(got-math.Log(36)) > 1e-9 {
		t.Fatalf("LogDet=%v want %v", got, math.Log(36))
	}
}

func TestCholeskyJitterRecoversNearSingular(t *testing.T) {
	// Rank-deficient matrix: ones(3,3). Jitter must rescue it.
	a := newMatrixFrom([][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("jitter failed to recover: %v", err)
	}
	if c.Jitter() == 0 {
		t.Fatal("expected nonzero jitter")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := newMatrixFrom([][]float64{{1, 0}, {0, -5}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	b := newMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := NewCholesky(b); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestCholeskySolveShapeError(t *testing.T) {
	a := newMatrixFrom([][]float64{{2, 0}, {0, 2}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve([]float64{1}); err == nil {
		t.Fatal("shape mismatch not caught")
	}
	if _, err := c.QuadForm([]float64{1, 2, 3}); err == nil {
		t.Fatal("shape mismatch not caught")
	}
}

func TestCholeskyExtendMatchesFullFactorization(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		a := randomSPD(r, n)
		// Factorize the leading (n-1) block, then extend with the last row.
		sub := a.submatrix(n-1, n-1)
		c0, err := NewCholesky(sub)
		if err != nil {
			return false
		}
		b := make([]float64, n-1)
		for i := range b {
			b[i] = a.At(i, n-1)
		}
		ext, err := c0.Extend(b, a.At(n-1, n-1))
		if err != nil {
			return false
		}
		full, err := NewCholesky(a)
		if err != nil {
			return false
		}
		// Both factors must solve the same systems.
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		s1, err1 := ext.Solve(x)
		s2, err2 := full.Solve(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return norm2(vecSub(s1, s2)) < 1e-5*(1+norm2(s2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyExtendShapeAndSPDErrors(t *testing.T) {
	a := newMatrixFrom([][]float64{{4, 0}, {0, 4}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extend([]float64{1}, 1); err == nil {
		t.Fatal("short vector accepted")
	}
	// Extending with b making the matrix indefinite must fail or jitter:
	// diag far too small relative to b.
	if _, err := c.Extend([]float64{10, 10}, 1); err == nil {
		t.Fatal("indefinite extension accepted")
	}
	// Valid extension succeeds and has size 3.
	ext, err := c.Extend([]float64{1, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Size() != 3 {
		t.Fatalf("size=%d", ext.Size())
	}
}

// TestCholeskyReplaceMatchesFullFactorization: for random SPD matrices and
// every removed row p, Replace must agree with NewCholesky of the matrix it
// describes — A without row/column p, the new row appended last.
func TestCholeskyReplaceMatchesFullFactorization(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 2, 3, 17, 128} {
		// One extra row supplies the appended column, so the reordered
		// matrix is a principal submatrix of an SPD matrix.
		a := randomSPD(r, n+1)
		c, err := NewCholesky(a.submatrix(n, n))
		if err != nil {
			t.Fatal(err)
		}
		before := append([]float64(nil), c.l...)
		for p := 0; p < n; p++ {
			idx := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if i != p {
					idx = append(idx, i)
				}
			}
			idx = append(idx, n)
			want := NewMatrix(n, n)
			for i, ai := range idx {
				for j, aj := range idx {
					want.Set(i, j, a.At(ai, aj))
				}
			}
			b := make([]float64, n-1)
			for i := range b {
				b[i] = a.At(idx[i], n)
			}
			got, err := c.Replace(p, b, a.At(n, n))
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			full, err := NewCholesky(want)
			if err != nil {
				t.Fatal(err)
			}
			scale := math.Sqrt(want.MaxAbsDiag())
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if d := math.Abs(got.LAt(i, j) - full.LAt(i, j)); !(d <= 1e-9*scale) {
						t.Fatalf("n=%d p=%d: L[%d][%d] = %v, NewCholesky %v", n, p, i, j, got.LAt(i, j), full.LAt(i, j))
					}
				}
			}
		}
		for i, v := range before {
			if c.l[i] != v {
				t.Fatalf("n=%d: Replace modified its receiver", n)
			}
		}
	}
}

// TestCholeskyReplaceNearSingular: an appended row that makes the matrix
// singular or indefinite, or non-finite input, yields ErrNotSPD or a finite
// factor — never NaN.
func TestCholeskyReplaceNearSingular(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	const n = 17
	a := randomSPD(r, n)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	p := 5
	// b duplicates row 0 of A₋ₚ, so diag = A[0][0] makes the new matrix
	// exactly singular and anything below it indefinite.
	b := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		if i != p {
			b = append(b, a.At(0, i))
		}
	}
	for _, diag := range []float64{a.At(0, 0), a.At(0, 0) * (1 - 1e-13), a.At(0, 0) - 1, -1, math.NaN(), math.Inf(1)} {
		got, err := c.Replace(p, b, diag)
		if err != nil {
			if !errors.Is(err, ErrNotSPD) {
				t.Fatalf("diag %v: error %v, want ErrNotSPD", diag, err)
			}
			continue
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if v := got.LAt(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("diag %v: L[%d][%d] = %v", diag, i, j, v)
				}
			}
		}
	}
	if _, err := c.Replace(p, b, -1); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite replacement: %v, want ErrNotSPD", err)
	}
	if _, err := c.Replace(n, b, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-range p: %v, want ErrShape", err)
	}
	if _, err := c.Replace(p, b[1:], 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short b: %v, want ErrShape", err)
	}
}

// TestCholeskyForwardInPlaceMatchesSolve: z = L⁻¹k and r = L⁻¹y give the
// forms Solve gives, z·z = kᵀA⁻¹k and z·r = kᵀA⁻¹y.
func TestCholeskyForwardInPlaceMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	n := 12
	a := randomSPD(r, n)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	k, y := make([]float64, n), make([]float64, n)
	for i := range k {
		k[i], y[i] = r.NormFloat64(), r.NormFloat64()
	}
	w, err := c.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	z, ry := append([]float64(nil), k...), append([]float64(nil), y...)
	if err := c.ForwardInPlace(z); err != nil {
		t.Fatal(err)
	}
	if err := c.ForwardInPlace(ry); err != nil {
		t.Fatal(err)
	}
	if got, want := Dot(z, z), Dot(k, w); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("z·z = %v, kᵀA⁻¹k = %v", got, want)
	}
	if got, want := Dot(z, ry), Dot(y, w); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("z·r = %v, yᵀA⁻¹k = %v", got, want)
	}
	if err := c.ForwardInPlace(k[1:]); !errors.Is(err, ErrShape) {
		t.Fatalf("short vector: %v, want ErrShape", err)
	}
}
