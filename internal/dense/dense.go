// Package dense provides row-major dense float64 matrices and the small
// set of BLAS-like kernels the GEBE algorithms need: products, transposes,
// norms, blocked (compact-WY) Householder QR, and a tridiagonal-QL
// symmetric eigensolver, with the pre-engine loops and a cyclic Jacobi
// eigensolver kept as references.
//
// Matrices are deliberately simple: a header (Rows, Cols) over a flat
// []float64 backing slice. All operations validate shapes and panic on
// mismatch, mirroring how Go's runtime treats out-of-range slice indexing:
// a shape error is a programming bug, not a runtime condition to handle.
package dense

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// Matrix is a row-major dense matrix. The zero value is an empty 0x0
// matrix ready to use.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed r-by-c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("dense: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Random returns an r-by-c matrix with entries drawn i.i.d. from the
// standard normal distribution using rng.
func Random(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("dense: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Mul returns a*b, dispatched through the dense engine's default tuning
// (register-blocked kernels, sequential — the zero Tuning). Call sites
// with a thread budget should pass it via MulOpts.
func Mul(a, b *Matrix) *Matrix {
	return MulOpts(a, b, Tuning{})
}

// MulT returns a * bᵀ under the engine's default tuning; see Mul.
func MulT(a, b *Matrix) *Matrix {
	return MulTOpts(a, b, Tuning{})
}

// TMul returns aᵀ * b under the engine's default tuning; see Mul.
func TMul(a, b *Matrix) *Matrix {
	return TMulOpts(a, b, Tuning{})
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	sameShape(a, b, "Add")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a-b.
func Sub(a, b *Matrix) *Matrix {
	sameShape(a, b, "Sub")
	return SubInto(New(a.Rows, a.Cols), a, b)
}

// AddScaled sets a ← a + s*b in place.
func (m *Matrix) AddScaled(s float64, b *Matrix) {
	sameShape(m, b, "AddScaled")
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
}

// Scale multiplies every entry of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ScaleCols multiplies column j of m by s[j] in place.
func (m *Matrix) ScaleCols(s []float64) {
	if len(s) != m.Cols {
		panic(fmt.Sprintf("dense: ScaleCols wants %d factors, got %d", m.Cols, len(s)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[j]
		}
	}
}

func sameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dense: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	return Norm2(m.Data)
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Col returns a copy of column j as a slice.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: col %d out of range %d", j, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SliceCols returns a copy of columns [lo,hi) of m.
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("dense: SliceCols [%d,%d) out of range %d", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// Equal reports whether a and b have the same shape and all entries agree
// within absolute tolerance tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 8; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols && j < 8; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	if m.Rows > 8 || m.Cols > 8 {
		b.WriteString(" ...")
	}
	b.WriteByte(']')
	return b.String()
}
