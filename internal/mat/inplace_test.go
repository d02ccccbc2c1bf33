package mat

import (
	"math"
	"testing"
)

func matsEqual(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	want := Mul(a, b)
	dst := &Matrix{}
	got := MulInto(dst, a, b)
	matsEqual(t, got, want, 0)
	if got != dst {
		t.Fatal("MulInto did not return dst")
	}
	// Reuse with different shapes must work and not leak stale values.
	c := fromRows([][]float64{{1, 1}, {2, 2}})
	MulInto(dst, c, c)
	matsEqual(t, dst, Mul(c, c), 0)
}

func TestMulTransInto(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}})
	want := Mul(a, b.T())
	dst := &Matrix{}
	matsEqual(t, MulTransBiasInto(dst, a, b, nil), want, 0)
}

func TestMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MulInto(&Matrix{}, New(2, 3), New(2, 3))
}

func TestMulVecInto(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {0, -1, 1}})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	got := m.mulVecInto(dst, x)
	want := m.MulVec(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecInto %v, want %v", got, want)
		}
	}
}

func TestReshapeReusesBacking(t *testing.T) {
	m := New(4, 4)
	data := &m.Data[0]
	m.Reshape(2, 8)
	if &m.Data[0] != data {
		t.Fatal("Reshape to equal size reallocated")
	}
	m.Reshape(2, 2)
	if &m.Data[0] != data || m.Rows != 2 || m.Cols != 2 || len(m.Data) != 4 {
		t.Fatal("Reshape shrink did not reuse backing")
	}
	m.Reshape(8, 8)
	if m.Rows != 8 || len(m.Data) != 64 {
		t.Fatal("Reshape grow failed")
	}
}

func TestCopyRows(t *testing.T) {
	m := &Matrix{}
	m.CopyRows([][]float64{{1, 2}, {3, 4}})
	matsEqual(t, m, fromRows([][]float64{{1, 2}, {3, 4}}), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("ragged input did not panic")
		}
	}()
	m.CopyRows([][]float64{{1, 2}, {3}})
}

func TestZeroAndAddScaledInto(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{10, 20}, {30, 40}})
	AddScaledInto(a, 0.5, b)
	matsEqual(t, a, fromRows([][]float64{{6, 12}, {18, 24}}), 0)
	a.Zero()
	matsEqual(t, a, New(2, 2), 0)
}

func BenchmarkMulInto16(b *testing.B) {
	a := New(16, 16)
	c := New(16, 16)
	for i := range a.Data {
		a.Data[i] = float64(i % 7)
		c.Data[i] = float64(i % 5)
	}
	dst := &Matrix{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, c)
	}
}
