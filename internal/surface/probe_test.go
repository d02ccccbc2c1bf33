package surface

import (
	"math"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// rowOnly hides a model's PredictMatrix so tests can force the per-row
// Predict fallback path.
type rowOnly struct{ m *core.NNModel }

func (r rowOnly) Predict(x []float64) []float64 { return r.m.Predict(x) }

// trainedModel fits a small 2→1 model on a smooth synthetic function.
func trainedModel(t *testing.T) *core.NNModel {
	t.Helper()
	src := rng.New(5)
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u"})
	for i := 0; i < 70; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		ds.MustAppend(workload.Sample{X: []float64{a, b}, Y: []float64{3 + a*a - math.Sin(b)}})
	}
	tc := train.DefaultConfig()
	tc.MaxEpochs = 120
	tc.TargetLoss = 0
	m, err := core.Fit(ds, core.Config{Hidden: []int{6}, Train: &tc, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func probeSlice(n int) Slice {
	return Slice{
		Fixed:   []float64{0, 0},
		XIndex:  0,
		YIndex:  1,
		XValues: Linspace(-2, 2, n),
		YValues: Linspace(-2, 2, n),
		Output:  0,
	}
}

// TestMatrixPathMatchesFallback pins the pooled matrix probe path to the
// per-row Predict fallback bit for bit, across worker counts.
func TestMatrixPathMatchesFallback(t *testing.T) {
	m := trainedModel(t)
	sl := probeSlice(12)
	defer sched.SetWorkers(0)
	for _, w := range []int{1, 2, 8} {
		sched.SetWorkers(w)
		fast, err := Evaluate(m, sl, m.InputDim(), m.OutputDim())
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Evaluate(rowOnly{m}, sl, m.InputDim(), m.OutputDim())
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.Z {
			for j := range fast.Z[i] {
				if fast.Z[i][j] != slow.Z[i][j] {
					t.Fatalf("workers=%d Z[%d][%d]: matrix path %v, fallback %v",
						w, i, j, fast.Z[i][j], slow.Z[i][j])
				}
			}
		}
	}
}

// TestProbeSteadyStateAllocs pins the surface-grid allocation fix: with
// warmed pools an n×n sweep allocates on the order of its result rows, not
// of its n² probe vectors.
func TestProbeSteadyStateAllocs(t *testing.T) {
	m := trainedModel(t)
	const n = 16
	sl := probeSlice(n)
	defer sched.SetWorkers(0)
	sched.SetWorkers(1)
	if _, err := Evaluate(m, sl, m.InputDim(), m.OutputDim()); err != nil {
		t.Fatal(err) // warm the probe and predict pools
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Evaluate(m, sl, m.InputDim(), m.OutputDim()); err != nil {
			panic(err)
		}
	})
	// Result rows (n) plus fixed scheduler/trace overhead; the pre-pool
	// path cost ~n·(n+2) configuration and output vectors on top.
	if budget := float64(4*n + 16); allocs > budget {
		t.Fatalf("steady-state %dx%d sweep allocates %v objects/op, want <= %v", n, n, allocs, budget)
	}
}
