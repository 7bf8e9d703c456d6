// Package linalg implements the dense linear algebra Verdict's inference
// needs: column-major matrices, Cholesky factorization of symmetric
// positive-definite covariance matrices with adaptive jitter, triangular
// solves, log-determinants (for the Eq. 13 likelihood), and the block
// operations behind the paper's O(n²) inference forms (Eq. 11–12).
//
// The matrices involved are covariance matrices over at most C_g = 2,000
// past snippets, so a straightforward cache-friendly dense implementation is
// the right tool; no sparse or blocked kernels are required.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization fails even after the
// maximum jitter has been applied.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// ErrShape is returned on dimension mismatches.
var ErrShape = errors.New("linalg: dimension mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add accumulates into element (i,j).
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// MaxAbsDiag returns the largest absolute diagonal entry (used to scale
// jitter).
func (m *Matrix) MaxAbsDiag() float64 {
	max := 0.0
	for i := 0; i < m.rows && i < m.cols; i++ {
		if v := math.Abs(m.data[i*m.cols+i]); v > max {
			max = v
		}
	}
	return max
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// Dot is the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Scale multiplies a vector by a scalar in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
