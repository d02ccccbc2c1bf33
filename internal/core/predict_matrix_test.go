package core

import (
	"testing"

	"nnwc/internal/mat"
)

// matrixFixture trains a model and a small ensemble on one synthetic
// dataset, plus the staged input matrix their matrix paths take.
func matrixFixture(t *testing.T) (*NNModel, *Ensemble, *mat.Matrix, [][]float64) {
	t.Helper()
	ds := syntheticDataset(90, 17)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ens, err := FitEnsemble(ds, fastConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	xs := ds.Xs()
	X := mat.New(len(xs), len(xs[0])).CopyRows(xs)
	return m, ens, X, xs
}

// TestPredictMatrixMatchesPredictAll pins the zero-alloc matrix path to the
// allocating convenience API bit for bit, for both MatrixPredictor
// implementations.
func TestPredictMatrixMatchesPredictAll(t *testing.T) {
	m, ens, X, xs := matrixFixture(t)
	preds := []struct {
		name string
		p    MatrixPredictor
	}{
		{"NNModel", m},
		{"Ensemble", ens},
	}
	for _, tc := range preds {
		var w PredictWorkspace
		got := tc.p.PredictMatrix(X, &w)
		want := tc.p.PredictAll(xs)
		if got.Rows != len(want) || got.Cols != len(want[0]) {
			t.Fatalf("%s: matrix is %dx%d, PredictAll gave %dx%d",
				tc.name, got.Rows, got.Cols, len(want), len(want[0]))
		}
		for i := range want {
			for j, v := range want[i] {
				if got.At(i, j) != v {
					t.Fatalf("%s: row %d output %d: matrix %v, PredictAll %v",
						tc.name, i, j, got.At(i, j), v)
				}
			}
		}
		// Predict on one row must agree too (same kernels, batch of one).
		single := tc.p.Predict(xs[5])
		for j, v := range single {
			if v != want[5][j] {
				t.Fatalf("%s: Predict output %d: %v, PredictAll %v", tc.name, j, v, want[5][j])
			}
		}
	}
}

// TestPredictMatrixZeroAlloc pins the steady-state allocation discipline of
// the matrix path: with a warmed workspace, predicting a batch allocates
// nothing for the single model and the ensemble.
func TestPredictMatrixZeroAlloc(t *testing.T) {
	m, ens, X, _ := matrixFixture(t)
	preds := []struct {
		name string
		p    MatrixPredictor
	}{
		{"NNModel", m},
		{"Ensemble", ens},
	}
	for _, tc := range preds {
		var w PredictWorkspace
		tc.p.PredictMatrix(X, &w) // warm the buffers (and the ensemble's sub workspace)
		allocs := testing.AllocsPerRun(50, func() {
			tc.p.PredictMatrix(X, &w)
		})
		if allocs != 0 {
			t.Fatalf("steady-state %s.PredictMatrix allocates %v objects/op", tc.name, allocs)
		}
	}
}

// TestEvaluateSteadyStateAllocs pins Evaluate's allocation budget: only the
// returned Evaluation and its metric slices — every batch-sized buffer
// comes from the pooled scratch.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	ds := syntheticDataset(90, 17)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(m, ds); err != nil { // warm the pooled scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Evaluate(m, ds); err != nil {
			panic(err)
		}
	})
	// Evaluation struct + TargetNames + 4 metric slices, plus a little
	// interface headroom; the point is the ~2·Len batch buffers are gone.
	if allocs > 10 {
		t.Fatalf("steady-state Evaluate allocates %v objects/op, want <= 10", allocs)
	}
}
