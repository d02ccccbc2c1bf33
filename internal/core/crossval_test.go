package core

import (
	"math"
	"runtime"
	"testing"

	"nnwc/internal/rng"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// paperShapeDataset samples a smooth 4→5 function on n rows: the shape of
// Table 2's dataset (four configuration knobs, five indicators).
func paperShapeDataset(n int, seed uint64) *workload.Dataset {
	src := rng.New(seed)
	ds := workload.NewDataset([]string{"rate", "mfg", "web", "default"}, []string{"a", "b", "c", "d", "e"})
	for i := 0; i < n; i++ {
		x := []float64{src.Uniform(400, 700), src.Uniform(8, 24), src.Uniform(8, 28), src.Uniform(2, 24)}
		ds.MustAppend(workload.Sample{X: x, Y: []float64{
			50 + x[0]/10 - x[1], 20 + math.Sin(x[2]/4)*5, 30 + x[3], 10 + x[1]*x[2]/20, 400 + x[0]/2 - x[3],
		}})
	}
	return ds
}

// paperFoldConfig is Table 2's fold: a 4-16-5 logistic MLP trained by
// full-batch RPROP for 100 epochs.
func paperFoldConfig() Config {
	tc := train.DefaultConfig()
	tc.MaxEpochs = 100
	return Config{Hidden: []int{16}, Train: &tc, Seed: 911}
}

// BenchmarkCrossValidateFold runs one warm fold of a 5-fold CV at the
// paper shape (324 rows, 259 train / 65 validation): the shuffle and split,
// the fit and the evaluation, so the glue around the epoch loop shows next
// to BenchmarkFoldEpoch's number.
func BenchmarkCrossValidateFold(b *testing.B) {
	ds, cfg := paperShapeDataset(324, 5), paperFoldConfig()
	if _, err := CrossValidateFold(ds, cfg, 5, 7, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidateFold(ds, cfg, 5, 7, i%5); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCrossValidateFoldSteadyStateAllocs pins a warm fold's allocations at
// the paper shape: the trainer comes from the pool with its workspace,
// row copies and gradients, and the fit standardizes straight into the
// trainer's rows, so what remains is the split, the fold's datasets, the
// scalers, the model and its evaluation.
func TestCrossValidateFoldSteadyStateAllocs(t *testing.T) {
	ds, cfg := paperShapeDataset(324, 5), paperFoldConfig()
	fold := func() {
		if _, err := CrossValidateFold(ds, cfg, 5, 7, 1); err != nil {
			panic(err)
		}
	}
	fold() // warm the trainer pool and the evaluation scratch
	allocs := testing.AllocsPerRun(10, fold)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		fold()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("warm fold allocates %v objects, %.1f KB", allocs, kb)
	// Measured 75 objects and 94 KB, with and without -race; the bounds
	// leave ~15% margin. Of the 94 KB, ~40 KB is the split's clone and
	// ~16 KB the fold's two datasets.
	if allocs > 85 || kb > 110 {
		t.Fatalf("warm fold allocates %v objects, %.1f KB; want <= 85 objects, <= 110 KB", allocs, kb)
	}
}
