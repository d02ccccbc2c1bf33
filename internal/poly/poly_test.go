package poly

import (
	"math"
	"testing"

	"nnwc/internal/rng"
)

func TestPolynomialExpandValues(t *testing.T) {
	p := Polynomial{Degree: 3}
	out := p.Expand([]float64{2, -1})
	want := []float64{2, 4, 8, -1, 1, -1}
	if len(out) != len(want) {
		t.Fatalf("expansion %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("expansion %v, want %v", out, want)
		}
	}
}

func TestPolynomialInteractions(t *testing.T) {
	p := Polynomial{Degree: 1, Interactions: true}
	out := p.Expand([]float64{2, 3, 5})
	// x1, x2, x3, x1x2, x1x3, x2x3
	want := []float64{2, 3, 5, 6, 10, 15}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("expansion %v, want %v", out, want)
		}
	}
}

func TestSizeMatchesExpand(t *testing.T) {
	maps := []FeatureMap{
		Polynomial{Degree: 1},
		Polynomial{Degree: 2},
		Polynomial{Degree: 4, Interactions: true},
		Polynomial{Degree: 0}, // clamps to 1
		Logarithmic{},
	}
	for _, m := range maps {
		for n := 1; n <= 5; n++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(i + 1)
			}
			if got, want := len(m.Expand(x)), m.Size(n); got != want {
				t.Fatalf("%s: Expand gives %d features, Size says %d", m.Name(), got, want)
			}
		}
	}
}

func TestLogarithmicExpand(t *testing.T) {
	out := Logarithmic{}.Expand([]float64{math.E - 1, -(math.E - 1)})
	if math.Abs(out[1]-1) > 1e-12 {
		t.Fatalf("ln(1+e-1) = %v, want 1", out[1])
	}
	if math.Abs(out[3]+1) > 1e-12 {
		t.Fatalf("signed log of negative: %v, want -1", out[3])
	}
}

func TestFitsQuadraticExactly(t *testing.T) {
	src := rng.New(1)
	var xs, ys [][]float64
	for i := 0; i < 60; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{a*a - 3*b*b + 2*a*b + a - 4})
	}
	m, err := Fit(Polynomial{Degree: 2, Interactions: true}, xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, -1.5}
	want := 0.25 - 3*2.25 + 2*0.5*-1.5 + 0.5 - 4
	if got := m.Predict(probe)[0]; math.Abs(got-want) > 1e-6 {
		t.Fatalf("quadratic fit predicts %v, want %v", got, want)
	}
}

func TestStandardizedFitMatchesRaw(t *testing.T) {
	// Standardization must not change the fitted function (it is a linear
	// reparameterization), only the conditioning.
	src := rng.New(2)
	var xs, ys [][]float64
	for i := 0; i < 50; i++ {
		a := src.Uniform(100, 900) // big magnitudes
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{0.01*a*a - 2*a + 3})
	}
	raw, err := Fit(Polynomial{Degree: 2}, xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	std, err := Fit(Polynomial{Degree: 2}, xs, ys, Options{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{432}
	a, b := raw.Predict(probe)[0], std.Predict(probe)[0]
	if math.Abs(a-b) > 1e-4*(1+math.Abs(a)) {
		t.Fatalf("standardized fit differs: %v vs %v", a, b)
	}
}

func TestRidgeRescuesCollinearPowers(t *testing.T) {
	// A feature with two distinct levels makes x and x³ (standardized:
	// ±1 and ±1) exactly collinear — OLS fails, ridge copes.
	var xs, ys [][]float64
	for i := 0; i < 20; i++ {
		v := float64(8 + 8*(i%2)) // levels 8 and 16
		xs = append(xs, []float64{v})
		ys = append(ys, []float64{v * 2})
	}
	if _, err := Fit(Polynomial{Degree: 3}, xs, ys, Options{Standardize: true}); err == nil {
		t.Fatal("collinear powers accepted without ridge")
	}
	m, err := Fit(Polynomial{Degree: 3}, xs, ys, Options{Lambda: 1e-4, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{8})[0]; math.Abs(got-16) > 0.1 {
		t.Fatalf("ridge poly predicts %v, want ~16", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, [][]float64{{1}}, [][]float64{{1}}, Options{}); err == nil {
		t.Fatal("nil feature map accepted")
	}
	if _, err := Fit(Polynomial{Degree: 2}, nil, nil, Options{}); err == nil {
		t.Fatal("empty samples accepted")
	}
}

func TestNames(t *testing.T) {
	if (Polynomial{Degree: 2}).Name() != "poly(2)" {
		t.Fatal("poly name wrong")
	}
	if (Polynomial{Degree: 3, Interactions: true}).Name() != "poly(3)+interactions" {
		t.Fatal("poly+interactions name wrong")
	}
	if (Logarithmic{}).Name() != "log" {
		t.Fatal("log name wrong")
	}
}

func TestPredictAll(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	ys := [][]float64{{1}, {4}, {9}}
	m, err := Fit(Polynomial{Degree: 2}, xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if got := m.Predict(x)[0]; math.Abs(got-ys[i][0]) > 1e-9 {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, ys[i][0])
		}
	}
}
