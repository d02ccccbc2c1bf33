package sensitivity

import (
	"math"
	"testing"

	"nnwc/internal/rng"
	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// funcPredictor adapts a function for testing.
type funcPredictor func(x []float64) []float64

func (f funcPredictor) Predict(x []float64) []float64 { return f(x) }

// dataset over a known function: y0 depends strongly on x0, weakly on x1,
// not at all on x2; y1 depends only on x2.
func knownDataset(n int, seed uint64) *workload.Dataset {
	src := rng.New(seed)
	ds := workload.NewDataset([]string{"x0", "x1", "x2"}, []string{"y0", "y1"})
	for i := 0; i < n; i++ {
		x := []float64{src.Uniform(-2, 2), src.Uniform(-2, 2), src.Uniform(-2, 2)}
		ds.MustAppend(workload.Sample{
			X: x,
			Y: []float64{10*x[0] + 0.5*x[1], 4 * x[2]},
		})
	}
	return ds
}

func truePredictor() funcPredictor {
	return func(x []float64) []float64 {
		return []float64{10*x[0] + 0.5*x[1], 4 * x[2]}
	}
}

func TestPermutationImportanceRanksFeatures(t *testing.T) {
	ds := knownDataset(150, 1)
	im, err := PermutationImportance(truePredictor(), ds, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// y0: x0 >> x1 > x2(≈0).
	if !(im.Scores[0][0] > 5*im.Scores[1][0]) {
		t.Fatalf("x0 (%v) should dominate x1 (%v) for y0", im.Scores[0][0], im.Scores[1][0])
	}
	if im.Scores[2][0] > 0.05 {
		t.Fatalf("x2 should be irrelevant for y0, got %v", im.Scores[2][0])
	}
	// y1: only x2 matters.
	if !(im.Scores[2][1] > 10*im.Scores[0][1]) {
		t.Fatalf("x2 (%v) should dominate x0 (%v) for y1", im.Scores[2][1], im.Scores[0][1])
	}
	// Totals are consistent with scores.
	if featureTotal(im, 0) <= featureTotal(im, 2)*0.1 {
		t.Fatal("feature totals inconsistent")
	}
}

func TestPermutationImportanceNonNegative(t *testing.T) {
	ds := knownDataset(60, 3)
	im, err := PermutationImportance(truePredictor(), ds, Options{Seed: 4, Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Scores {
		for j := range im.Scores[i] {
			if im.Scores[i][j] < 0 {
				t.Fatalf("negative importance at (%d,%d)", i, j)
			}
		}
	}
}

func TestPermutationImportanceDeterministic(t *testing.T) {
	ds := knownDataset(60, 5)
	a, err := PermutationImportance(truePredictor(), ds, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PermutationImportance(truePredictor(), ds, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Scores[0][0] != b.Scores[0][0] {
		t.Fatal("importance not deterministic")
	}
}

func TestPermutationImportanceErrors(t *testing.T) {
	if _, err := PermutationImportance(truePredictor(), nil, Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	tiny := workload.NewDataset([]string{"x"}, []string{"y"})
	tiny.MustAppend(workload.Sample{X: []float64{1}, Y: []float64{1}})
	if _, err := PermutationImportance(truePredictor(), tiny, Options{}); err == nil {
		t.Fatal("singleton dataset accepted")
	}
	wrongDim := funcPredictor(func(x []float64) []float64 { return []float64{0} })
	ds := knownDataset(10, 7)
	if _, err := PermutationImportance(wrongDim, ds, Options{}); err == nil {
		t.Fatal("wrong predictor arity accepted")
	}
}

func TestPartialDependenceRecoversMarginalSlope(t *testing.T) {
	ds := knownDataset(100, 8)
	grid := []float64{-2, -1, 0, 1, 2}
	prof, err := PartialDependence(truePredictor(), ds, 0, 0, grid)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Feature != "x0" || prof.Target != "y0" {
		t.Fatalf("profile labels %q/%q", prof.Feature, prof.Target)
	}
	// Marginal slope of y0 in x0 is exactly 10.
	slope := (prof.Y[4] - prof.Y[0]) / (grid[4] - grid[0])
	if math.Abs(slope-10) > 1e-9 {
		t.Fatalf("partial-dependence slope %v, want 10", slope)
	}
	// Irrelevant feature: flat profile.
	flat, err := PartialDependence(truePredictor(), ds, 2, 0, grid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flat.Y[4]-flat.Y[0]) > 1e-9 {
		t.Fatal("irrelevant feature's profile is not flat")
	}
}

func TestPartialDependenceErrors(t *testing.T) {
	ds := knownDataset(10, 9)
	grid := []float64{0, 1}
	if _, err := PartialDependence(truePredictor(), nil, 0, 0, grid); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := PartialDependence(truePredictor(), ds, 9, 0, grid); err == nil {
		t.Fatal("bad feature index accepted")
	}
	if _, err := PartialDependence(truePredictor(), ds, 0, 9, grid); err == nil {
		t.Fatal("bad target index accepted")
	}
	if _, err := PartialDependence(truePredictor(), ds, 0, 0, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// featureTotal sums feature i's importance across indicators.
func featureTotal(im *Importance, i int) float64 {
	return stats.Mean(im.Scores[i]) * float64(len(im.Scores[i]))
}
