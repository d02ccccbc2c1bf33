package rbf

import (
	"math"
	"testing"

	"nnwc/internal/rng"
)

func TestFitsSmoothFunction(t *testing.T) {
	src := rng.New(1)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{math.Sin(a) + 0.5*b*b})
	}
	net, err := Fit(xs, ys, Config{Centers: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	probe := rng.New(3)
	for i := 0; i < 50; i++ {
		a, b := probe.Uniform(-1.5, 1.5), probe.Uniform(-1.5, 1.5)
		want := math.Sin(a) + 0.5*b*b
		got := net.Predict([]float64{a, b})[0]
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > 0.25 {
		t.Fatalf("worst interpolation error %v", worst)
	}
}

func TestExactInterpolationWithCenterPerSample(t *testing.T) {
	// With one centre per sample and a tiny ridge, the RBF system can
	// nearly interpolate the training data.
	src := rng.New(4)
	var xs, ys [][]float64
	for i := 0; i < 25; i++ {
		a := src.Uniform(-3, 3)
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{a * a})
	}
	net, err := Fit(xs, ys, Config{Centers: 25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range xs {
		d := net.Predict(xs[i])[0] - ys[i][0]
		sum += d * d
	}
	if rmse := math.Sqrt(sum / float64(len(xs))); rmse > 0.2 {
		t.Fatalf("training RMSE %v", rmse)
	}
}

func TestMultiOutput(t *testing.T) {
	src := rng.New(6)
	var xs, ys [][]float64
	for i := 0; i < 80; i++ {
		a := src.Uniform(0, 4)
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{a, 2 * a})
	}
	net, err := Fit(xs, ys, Config{Centers: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if net.Out.W.Rows != 2 || len(net.Centers[0]) != 1 {
		t.Fatalf("dims %d→%d", len(net.Centers[0]), net.Out.W.Rows)
	}
	out := net.Predict([]float64{2})
	if math.Abs(out[1]-2*out[0]) > 0.5 {
		t.Fatalf("outputs inconsistent: %v", out)
	}
}

func TestCentersClampedToSampleCount(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	ys := [][]float64{{1}, {2}, {3}}
	net, err := Fit(xs, ys, Config{Centers: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Centers) > 3 {
		t.Fatalf("%d centers from 3 samples", len(net.Centers))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Config{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit([][]float64{{1}}, [][]float64{{1}, {2}}, Config{}); err == nil {
		t.Fatal("mismatched counts accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, [][]float64{{1}, {2}}, Config{Centers: 2}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestDeterministicInSeed(t *testing.T) {
	src := rng.New(8)
	var xs, ys [][]float64
	for i := 0; i < 40; i++ {
		a := src.Uniform(-1, 1)
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{math.Exp(a)})
	}
	a, err := Fit(xs, ys, Config{Centers: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(xs, ys, Config{Centers: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Predict([]float64{0.3})[0] != b.Predict([]float64{0.3})[0] {
		t.Fatal("same seed gave different RBF networks")
	}
}

func TestDuplicatePointsSurvive(t *testing.T) {
	// All-identical inputs must not crash k-means or widths.
	xs := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	ys := [][]float64{{2}, {2}, {2}, {2}}
	net, err := Fit(xs, ys, Config{Centers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Predict([]float64{1, 1})[0]; math.Abs(got-2) > 0.2 {
		t.Fatalf("degenerate fit predicts %v", got)
	}
}

func TestWidthScaleSmooths(t *testing.T) {
	src := rng.New(10)
	var xs, ys [][]float64
	for i := 0; i < 60; i++ {
		a := src.Uniform(-2, 2)
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{math.Sin(3*a) + (0 + 0.2*src.Norm())})
	}
	sharp, err := Fit(xs, ys, Config{Centers: 30, WidthScale: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := Fit(xs, ys, Config{Centers: 30, WidthScale: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The smoother net's training error should be higher (it averages the
	// noise rather than chasing it).
	errOf := func(n *Network) float64 {
		var s float64
		for i := range xs {
			d := n.Predict(xs[i])[0] - ys[i][0]
			s += d * d
		}
		return s
	}
	if errOf(smooth) <= errOf(sharp) {
		t.Fatal("larger widths should fit training data more loosely")
	}
}

func BenchmarkRBFFit(b *testing.B) {
	src := rng.New(1)
	var xs, ys [][]float64
	for i := 0; i < 160; i++ {
		x := []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
		xs = append(xs, x)
		ys = append(ys, []float64{x[0] * x[1], x[2] + x[3]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys, Config{Centers: 24, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
