package mat

import (
	"math"
	"testing"
	"testing/quick"

	"nnwc/internal/rng"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 1) did not panic")
		}
	}()
	New(0, 1)
}

func TestFromRowsAndAt(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatal("element access wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	fromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	m := identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose wrong")
			}
		}
	}
}

func TestMulHandChecked(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 1 + src.Intn(6)
		a := randomMatrix(src, n, n)
		c := Mul(a, identity(n))
		for i := range a.Data {
			if !approxEqual(a.Data[i], c.Data[i], 1e-12) {
				t.Fatal("A*I != A")
			}
		}
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible Mul did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec got %v", got)
	}
}

func TestAddAndScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}})
	b := fromRows([][]float64{{10, 20}})
	c := add(a, b)
	if c.At(0, 0) != 11 || c.At(0, 1) != 22 {
		t.Fatalf("Add got %v", c.Data)
	}
	s := scale(2, a)
	if s.At(0, 0) != 2 || s.At(0, 1) != 4 {
		t.Fatalf("Scale got %v", s.Data)
	}
	// originals untouched
	if a.At(0, 0) != 1 {
		t.Fatal("Scale mutated its input")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !approxEqual(norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY got %v", y)
	}
}

func randomMatrix(src *rng.Source, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Uniform(-2, 2)
	}
	return m
}

// randomSPD builds a well-conditioned symmetric positive-definite matrix.
func randomSPD(src *rng.Source, n int) *Matrix {
	a := randomMatrix(src, n, n)
	spd := Mul(a.T(), a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // boost the diagonal
	}
	return spd
}

func TestCholeskyReconstructs(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		n := 1 + src.Intn(6)
		a := randomSPD(src, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		recon := Mul(l, l.T())
		for i := range a.Data {
			if !approxEqual(a.Data[i], recon.Data[i], 1e-9) {
				t.Fatalf("L*Lᵀ != A (trial %d)", trial)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("Cholesky accepted a non-square matrix")
	}
}

func TestSolveCholeskyRoundTrip(t *testing.T) {
	src := rng.New(8)
	for trial := 0; trial < 25; trial++ {
		n := 1 + src.Intn(6)
		a := randomSPD(src, n)
		want := randomMatrix(src, n, 2)
		b := Mul(a, want)
		got, err := SolveCholesky(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if !approxEqual(want.Data[i], got.Data[i], 1e-7) {
				t.Fatalf("solution mismatch at %d: %v vs %v", i, want.Data[i], got.Data[i])
			}
		}
	}
}

func TestQRSolveExact(t *testing.T) {
	// Square, full-rank system: QR least squares equals exact solve.
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	want := fromRows([][]float64{{1}, {-2}})
	b := Mul(a, want)
	got, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got.At(0, 0), 1, 1e-10) || !approxEqual(got.At(1, 0), -2, 1e-10) {
		t.Fatalf("QR solve got %v", got.Data)
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// For the LS solution x, the residual r = b − A·x must satisfy
	// Aᵀr = 0 (normal equations).
	src := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		rows := 5 + src.Intn(10)
		cols := 1 + src.Intn(4)
		a := randomMatrix(src, rows, cols)
		b := randomMatrix(src, rows, 1)
		x, err := SolveLeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax := Mul(a, x)
		r := New(rows, 1)
		for i := range r.Data {
			r.Data[i] = b.Data[i] - ax.Data[i]
		}
		atr := Mul(a.T(), r)
		for i := range atr.Data {
			if !approxEqual(atr.Data[i], 0, 1e-8) {
				t.Fatalf("normal equations violated: Aᵀr[%d] = %v", i, atr.Data[i])
			}
		}
	}
}

func TestQRDetectsRankDeficiency(t *testing.T) {
	// Second column is twice the first: rank 1.
	a := fromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := SolveLeastSquares(a, New(3, 1)); err == nil {
		t.Fatal("rank-deficient system was not rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := fromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowIsView(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	a.Row(1)[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("Row should be a view")
	}
}

func TestColIsCopy(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	col := a.col(0)
	col[0] = 42
	if a.At(0, 0) != 1 {
		t.Fatal("Col should be a copy")
	}
}

func TestStringRendering(t *testing.T) {
	s := fromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Fatal("String returned empty")
	}
}

func TestTransposeInvolution(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		rows, cols := 1+src.Intn(5), 1+src.Intn(5)
		a := randomMatrix(src, rows, cols)
		tt := a.T().T()
		for i := range a.Data {
			if a.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul16(b *testing.B) {
	src := rng.New(1)
	x := randomMatrix(src, 16, 16)
	y := randomMatrix(src, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkCholesky16(b *testing.B) {
	a := randomSPD(rng.New(1), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// Test helpers: matrix operations that only these tests use.

// fromRows builds a matrix from equal-length rows; it panics on an
// empty or ragged input.
func fromRows(rows [][]float64) *Matrix { return new(Matrix).CopyRows(rows) }

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// col returns a copy of column j.
func (m *Matrix) col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

// add returns a+b.
func add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	c := a.Clone()
	for i, v := range b.Data {
		c.Data[i] += v
	}
	return c
}

// scale returns s*m as a new matrix.
func scale(s float64, m *Matrix) *Matrix {
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// mulVecInto computes dst = m·x without allocating. dst must have length
// m.Rows and must not alias x. Returns dst.
func (m *Matrix) mulVecInto(dst, x []float64) []float64 {
	if m.Cols != len(x) || m.Rows != len(dst) {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}
