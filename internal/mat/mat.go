// Package mat implements the small dense linear-algebra kernels the rest of
// the repository needs: vectors, row-major matrices, matrix products,
// transposes, and the Cholesky and QR solvers used by the linear and
// polynomial regression baselines.
//
// The package favours clarity and predictable allocation over raw speed;
// the matrices involved in workload characterization are tiny (tens of
// columns, hundreds of rows).
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned by the solvers when the system matrix is singular
// or not positive definite.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Matrix is a dense, row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix with the given shape. It panics if either
// dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product a*b. It panics if the inner dimensions
// disagree.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(ErrShape)
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			//lint:waive floateq -- exact-zero sparsity skip in the inner product; FP-safe
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(ErrShape)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.5g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Dot returns the inner product of two equal-length vectors. The loop is
// 4x-unrolled onto a single accumulator, so the addition sequence — and
// therefore every rounding step — is identical to the plain ascending loop.
//
//nnwc:hotpath
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	return DotSeed(0, a, b)
}

// DotSeed returns s + Σᵢ a[i]·b[i] accumulated in ascending order onto the
// single accumulator s — the seeded inner product behind both Dot and the
// bias-first affine kernels (a perceptron's Σ wⱼxⱼ starts from its bias).
// a and b must have equal length; the 4x unrolling preserves the exact
// addition sequence of the plain loop.
//
//nnwc:hotpath
func DotSeed(s float64, a, b []float64) float64 {
	b = b[:len(a)] // one bounds proof for the whole loop
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// AXPY computes y += alpha*x in place. Elements are independent, so the 4x
// unrolling cannot change any rounding.
//
//nnwc:hotpath
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Cholesky factors the symmetric positive-definite matrix a into L*Lᵀ and
// returns the lower-triangular factor L. It returns ErrSingular if a is not
// positive definite to working precision.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves a*x = b for x where a is symmetric positive
// definite, using a Cholesky factorization. b may have multiple columns.
func SolveCholesky(a, b *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	if b.Rows != n {
		return nil, ErrShape
	}
	x := New(n, b.Cols)
	// Forward substitution: L*y = b, then back substitution: Lᵀ*x = y.
	y := New(n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			sum := b.At(i, c)
			for k := 0; k < i; k++ {
				sum -= l.At(i, k) * y.At(k, c)
			}
			y.Set(i, c, sum/l.At(i, i))
		}
		for i := n - 1; i >= 0; i-- {
			sum := y.At(i, c)
			for k := i + 1; k < n; k++ {
				sum -= l.At(k, i) * x.At(k, c)
			}
			x.Set(i, c, sum/l.At(i, i))
		}
	}
	return x, nil
}

// QR holds a Householder QR factorization of a matrix with Rows >= Cols.
type QR struct {
	qr   *Matrix   // packed factors
	rdia []float64 // diagonal of R
}

// NewQR computes the QR factorization of a (which is not modified).
func NewQR(a *Matrix) *QR {
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n && k < m; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		//lint:waive floateq -- Householder norm exactly zero means the column is already eliminated
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdia[k] = -nrm
	}
	return &QR{qr: qr, rdia: rdia}
}

// FullRank reports whether the factored matrix has full column rank to
// working precision: every R diagonal must be meaningfully larger than
// rounding noise relative to the largest one.
func (f *QR) FullRank() bool {
	var maxD float64
	for _, d := range f.rdia {
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	//lint:waive floateq -- rank sentinel: exact zero max diagonal means no scale to compare against
	if maxD == 0 {
		return false
	}
	tol := maxD * 1e-12 * float64(len(f.rdia))
	for _, d := range f.rdia {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// Solve finds the least-squares solution x minimizing ‖a*x − b‖₂ for each
// column of b. It returns ErrSingular if a is column-rank-deficient.
func (f *QR) Solve(b *Matrix) (*Matrix, error) {
	if !f.FullRank() {
		return nil, ErrSingular
	}
	m, n := f.qr.Rows, f.qr.Cols
	if b.Rows != m {
		return nil, ErrShape
	}
	x := b.Clone()
	// Apply Householder reflections to b.
	for k := 0; k < n && k < m; k++ {
		for c := 0; c < x.Cols; c++ {
			var s float64
			for i := k; i < m; i++ {
				s += f.qr.At(i, k) * x.At(i, c)
			}
			//lint:waive floateq -- exact-zero pivot skip: a singular diagonal entry contributes nothing
			if f.qr.At(k, k) == 0 {
				continue
			}
			s = -s / f.qr.At(k, k)
			for i := k; i < m; i++ {
				x.Set(i, c, x.At(i, c)+s*f.qr.At(i, k))
			}
		}
	}
	// Back substitution against R.
	out := New(n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		for i := n - 1; i >= 0; i-- {
			sum := x.At(i, c)
			for j := i + 1; j < n; j++ {
				sum -= f.qr.At(i, j) * out.At(j, c)
			}
			out.Set(i, c, sum/f.rdia[i])
		}
	}
	return out, nil
}

// SolveLeastSquares is a convenience wrapper: it computes the least-squares
// solution of a*x = b via QR.
func SolveLeastSquares(a, b *Matrix) (*Matrix, error) {
	return NewQR(a).Solve(b)
}
