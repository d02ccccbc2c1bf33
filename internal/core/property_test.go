package core

import (
	"math"
	"testing"
	"testing/quick"

	"nnwc/internal/rng"
	"nnwc/internal/workload"
)

// perfectPredictor echoes the dataset's own targets by memorizing X→Y.
type perfectPredictor struct {
	ds *workload.Dataset
}

func (p perfectPredictor) Predict(x []float64) []float64 {
	for _, s := range p.ds.Samples {
		match := true
		for j := range x {
			if s.X[j] != x[j] {
				match = false
				break
			}
		}
		if match {
			return append([]float64(nil), s.Y...)
		}
	}
	return make([]float64, p.ds.NumTargets())
}

func TestEvaluatePerfectPredictorIsZeroError(t *testing.T) {
	ds := syntheticDataset(30, 40)
	ev, err := Evaluate(perfectPredictor{ds}, ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ev.HMRE {
		if ev.HMRE[j] != 0 || ev.MAPE[j] != 0 || ev.RMSE[j] != 0 {
			t.Fatalf("perfect predictor scored nonzero error: %+v", ev)
		}
		if ev.R2[j] != 1 {
			t.Fatalf("perfect predictor R² %v", ev.R2[j])
		}
	}
	if ev.MeanHMRE() != 0 {
		t.Fatalf("mean HMRE %v", ev.MeanHMRE())
	}
}

// TestPredictIsPureFunction: repeated predictions on the same input return
// identical values (no hidden state in the scaler/network path).
func TestPredictIsPureFunction(t *testing.T) {
	ds := syntheticDataset(60, 41)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		x := []float64{src.Uniform(-2, 2), src.Uniform(-2, 2)}
		a := m.Predict(x)
		b := m.Predict(x)
		return a[0] == b[0] && a[1] == b[1]
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictDoesNotMutateInput: the scaling path must copy, not modify,
// the caller's configuration vector.
func TestPredictDoesNotMutateInput(t *testing.T) {
	ds := syntheticDataset(40, 42)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1.25, -0.75}
	orig := append([]float64(nil), x...)
	m.Predict(x)
	for j := range x {
		if x[j] != orig[j] {
			t.Fatal("Predict mutated its input")
		}
	}
}

// TestFitInsensitiveToFeatureScaling: with standardization on (the §3.1
// pipeline), multiplying a feature column by a constant must not change
// the learned function materially — the scaler absorbs it.
func TestFitInsensitiveToFeatureScaling(t *testing.T) {
	ds := syntheticDataset(100, 43)
	scaled := ds.Clone()
	const k = 1000.0
	for i := range scaled.Samples {
		scaled.Samples[i].X[0] *= k
	}
	m1, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(scaled, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Compare predictions at matched points.
	src := rng.New(9)
	for i := 0; i < 20; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		p1 := m1.Predict([]float64{a, b})
		p2 := m2.Predict([]float64{a * k, b})
		for j := range p1 {
			denom := math.Abs(p1[j]) + 1
			if math.Abs(p1[j]-p2[j])/denom > 0.02 {
				t.Fatalf("scaling broke invariance: %v vs %v", p1[j], p2[j])
			}
		}
	}
}

// TestCrossValidateTrialsAreIndependent: the per-trial models must differ
// (different training folds), while every trial shares the schema.
func TestCrossValidateTrialsAreIndependent(t *testing.T) {
	ds := syntheticDataset(80, 44)
	cv, err := CrossValidate(ds, fastConfig(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, 0.5}
	preds := map[float64]bool{}
	for _, tr := range cv.Trials {
		preds[tr.Model.Predict(x)[0]] = true
		if tr.Model.InputDim() != 2 || tr.Model.OutputDim() != 2 {
			t.Fatal("trial model schema wrong")
		}
	}
	if len(preds) < 2 {
		t.Fatal("all trial models predict identically — folds not independent?")
	}
}

// TestLooseFitBeatsOverfitOnNoisyData reproduces §3.3's core claim as a
// property of the library: with noisy targets, a loose loss threshold
// yields validation error no worse than an aggressively tight fit.
func TestLooseFitBeatsOverfitOnNoisyData(t *testing.T) {
	src := rng.New(45)
	noisy := workload.NewDataset([]string{"a"}, []string{"y"})
	for i := 0; i < 60; i++ {
		a := src.Uniform(-2, 2)
		noisy.MustAppend(workload.Sample{
			X: []float64{a},
			Y: []float64{5 + a*a + (0 + 0.3*src.Norm())},
		})
	}
	clean := workload.NewDataset([]string{"a"}, []string{"y"})
	for i := 0; i < 40; i++ {
		a := src.Uniform(-2, 2)
		clean.MustAppend(workload.Sample{X: []float64{a}, Y: []float64{5 + a*a}})
	}

	run := func(target float64) float64 {
		cfg := fastConfig()
		cfg.Hidden = []int{24} // plenty of capacity to overfit with
		tc := *cfg.Train
		tc.TargetLoss = target
		tc.MaxEpochs = 3000
		cfg.Train = &tc
		m, err := Fit(noisy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(m, clean)
		if err != nil {
			t.Fatal(err)
		}
		return ev.MeanHMRE()
	}
	loose := run(5e-3)
	tight := run(1e-9)
	if loose > tight*1.5 {
		t.Fatalf("loose fit (%.3f) much worse than tight fit (%.3f); §3.3 property violated", loose, tight)
	}
}
