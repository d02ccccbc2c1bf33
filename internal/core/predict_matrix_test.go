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

// TestPredictMatrixMatchesPredictAll pins the zero-alloc matrix path to
// per-row Predict bit for bit, for both MatrixPredictor implementations,
// and NNModel's PredictAll, the serving path, to both.
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
		if got.Rows != len(xs) {
			t.Fatalf("%s: matrix has %d rows for %d inputs", tc.name, got.Rows, len(xs))
		}
		for i, x := range xs {
			want := tc.p.Predict(x)
			if got.Cols != len(want) {
				t.Fatalf("%s: matrix has %d columns, Predict gave %d", tc.name, got.Cols, len(want))
			}
			for j, v := range want {
				if got.At(i, j) != v {
					t.Fatalf("%s: row %d output %d: matrix %v, Predict %v",
						tc.name, i, j, got.At(i, j), v)
				}
			}
		}
	}
	for i, row := range m.PredictAll(xs) {
		for j, v := range row {
			if v != m.Predict(xs[i])[j] {
				t.Fatalf("NNModel: row %d output %d: PredictAll %v, Predict %v", i, j, v, m.Predict(xs[i])[j])
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
