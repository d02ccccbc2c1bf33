package linear

import (
	"math"
	"testing"

	"nnwc/internal/rng"
)

func TestRecoverKnownCoefficients(t *testing.T) {
	// y1 = 3a − 2b + 5; y2 = −a + 4b. Exact data → exact recovery.
	src := rng.New(1)
	var xs, ys [][]float64
	for i := 0; i < 50; i++ {
		a, b := src.Uniform(-5, 5), src.Uniform(-5, 5)
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{3*a - 2*b + 5, -a + 4*b})
	}
	m, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		got, want float64
	}{
		{m.W.At(0, 0), 3}, {m.W.At(0, 1), -2}, {m.B[0], 5},
		{m.W.At(1, 0), -1}, {m.W.At(1, 1), 4}, {m.B[1], 0},
	}
	for i, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("coefficient %d = %v, want %v", i, c.got, c.want)
		}
	}
	if m.W.Cols != 2 || m.W.Rows != 2 {
		t.Fatalf("dims %d→%d", m.W.Cols, m.W.Rows)
	}
}

func TestPredictMatchesManual(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := [][]float64{{1}, {3}, {5}, {7}} // y = 2x + 1
	m, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{10})[0]; math.Abs(got-21) > 1e-9 {
		t.Fatalf("Predict(10) = %v", got)
	}
	if got := m.Predict(xs[2])[0]; math.Abs(got-5) > 1e-9 {
		t.Fatalf("Predict(2) = %v", got)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	src := rng.New(2)
	var xs, ys [][]float64
	for i := 0; i < 30; i++ {
		a := src.Uniform(-1, 1)
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{10 * a})
	}
	ols, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := Fit(xs, ys, Options{Lambda: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ridge.W.At(0, 0)) >= math.Abs(ols.W.At(0, 0)) {
		t.Fatalf("ridge |w|=%v not smaller than OLS |w|=%v", ridge.W.At(0, 0), ols.W.At(0, 0))
	}
}

func TestRidgeHandlesCollinear(t *testing.T) {
	// Second feature is an exact copy: OLS must fail, ridge must cope.
	var xs, ys [][]float64
	for i := 0; i < 10; i++ {
		v := float64(i)
		xs = append(xs, []float64{v, v})
		ys = append(ys, []float64{2 * v})
	}
	if _, err := Fit(xs, ys, Options{}); err == nil {
		t.Fatal("OLS accepted exactly collinear features")
	}
	m, err := Fit(xs, ys, Options{Lambda: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{4, 4})[0]; math.Abs(got-8) > 1e-3 {
		t.Fatalf("ridge prediction %v, want ~8", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit([][]float64{{1}}, [][]float64{{1}, {2}}, Options{}); err == nil {
		t.Fatal("mismatched counts accepted")
	}
	// More coefficients than samples without ridge.
	if _, err := Fit([][]float64{{1, 2, 3}}, [][]float64{{1}}, Options{}); err == nil {
		t.Fatal("underdetermined OLS accepted")
	}
	// Ragged rows.
	if _, err := Fit([][]float64{{1, 2}, {3}}, [][]float64{{1}, {2}}, Options{}); err == nil {
		t.Fatal("ragged X accepted")
	}
	if _, err := Fit([][]float64{{1}, {2}, {3}}, [][]float64{{1}, {2}, {1, 2}}, Options{}); err == nil {
		t.Fatal("ragged Y accepted")
	}
}

func TestNoisyFitIsReasonable(t *testing.T) {
	src := rng.New(3)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		a := src.Uniform(-3, 3)
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{4*a + 1 + (0 + 0.1*src.Norm())})
	}
	m, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.W.At(0, 0)-4) > 0.05 || math.Abs(m.B[0]-1) > 0.05 {
		t.Fatalf("noisy fit w=%v b=%v", m.W.At(0, 0), m.B[0])
	}
}

func BenchmarkFit4x5x300(b *testing.B) {
	src := rng.New(1)
	var xs, ys [][]float64
	for i := 0; i < 300; i++ {
		x := []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
		xs = append(xs, x)
		ys = append(ys, []float64{x[0], x[1], x[2], x[3], x[0] + x[1]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
