// Package nnwc holds the repository-level benchmark harness: one benchmark
// per paper table and figure (regenerating the artifact end to end on a
// scaled-down campaign), plus the ablation benches DESIGN.md calls out for
// the design choices of §3 (joint vs split networks, standardization,
// early-stopping threshold, hidden node count, optimizer).
//
// Benchmarks report quality alongside time: custom metrics use
// b.ReportMetric with units like %err, so `go test -bench . -benchmem`
// doubles as a results table.
package nnwc

import (
	"io"
	"sync"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/experiments"
	"nnwc/internal/linear"
	"nnwc/internal/nn"
	"nnwc/internal/rng"
	"nnwc/internal/stats"
	"nnwc/internal/surface"
	"nnwc/internal/threetier"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// benchDataset is the shared scaled-down sample campaign; collected once.
var (
	benchOnce sync.Once
	benchDS   *workload.Dataset
)

func benchSys() threetier.SystemParams {
	sys := threetier.DefaultSystemParams()
	sys.WarmupTime = 3
	sys.MeasureTime = 12
	return sys
}

func dataset(b *testing.B) *workload.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		spec := threetier.SweepSpec{
			InjectionRates: []float64{480, 560},
			MfgThreads:     []int{8, 16},
			WebThreads:     []int{10, 14, 18, 22, 26},
			DefaultThreads: []int{2, 6, 10, 14},
			Replicates:     1,
		}
		ds, err := threetier.Collect(spec, benchSys(), 2006)
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	return benchDS
}

func benchModelConfig(hidden []int, seed uint64) core.Config {
	tc := train.DefaultConfig()
	tc.MaxEpochs = 500
	return core.Config{Hidden: hidden, Train: &tc, Seed: seed}
}

// quickContext builds an experiments context writing artifacts to a bench
// temp dir and discarding the textual report.
func quickContext(b *testing.B) *experiments.Context {
	b.Helper()
	ctx := experiments.NewQuick(io.Discard, b.TempDir())
	ctx.Sys.WarmupTime = 3
	ctx.Sys.MeasureTime = 12
	return ctx
}

// --- Table and figure benches ------------------------------------------

// BenchmarkTable2CrossValidation regenerates Table 2: the full 5-fold
// cross-validation on a fresh context, reporting the paper's headline
// accuracy.
func BenchmarkTable2CrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunTable2(); err != nil {
			b.Fatal(err)
		}
		cv, err := ctx.CrossValidation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cv.OverallAccuracy()*100, "%acc")
	}
}

// BenchmarkFig2Sigmoid regenerates the Figure 2 data series.
func BenchmarkFig2Sigmoid(b *testing.B) {
	ctx := quickContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.RunFig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TrainingFit regenerates the Figure 5 actual-vs-predicted
// training-set series.
func BenchmarkFig5TrainingFit(b *testing.B) {
	ctx := quickContext(b)
	for i := 0; i < b.N; i++ {
		if err := ctx.RunFig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ValidationFit regenerates the Figure 6 validation-set
// series.
func BenchmarkFig6ValidationFit(b *testing.B) {
	ctx := quickContext(b)
	for i := 0; i < b.N; i++ {
		if err := ctx.RunFig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSurfaceFigure(b *testing.B, run func(*experiments.Context) error) {
	b.Helper()
	ctx := quickContext(b)
	for i := 0; i < b.N; i++ {
		if err := run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Surface regenerates the parallel-slopes surface.
func BenchmarkFig4Surface(b *testing.B) {
	benchSurfaceFigure(b, (*experiments.Context).RunFig4)
}

// BenchmarkFig7Surface regenerates the valley surface.
func BenchmarkFig7Surface(b *testing.B) {
	benchSurfaceFigure(b, (*experiments.Context).RunFig7)
}

// BenchmarkFig8Surface regenerates the hill surface.
func BenchmarkFig8Surface(b *testing.B) {
	benchSurfaceFigure(b, (*experiments.Context).RunFig8)
}

// BenchmarkBaselineComparison regenerates the linear-vs-MLP table backing
// the paper's motivation (§1/§6).
func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunBaseline(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtrapolation regenerates the §5.3 extrapolation experiment.
func BenchmarkExtrapolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunExtrapolation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendation regenerates the §5.3 configuration-recommender
// experiment.
func BenchmarkRecommendation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunRecommend(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ------------------------------------

// validationError trains cfg on a fixed split of the bench dataset and
// returns the mean validation HMRE (as a percentage).
func validationError(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	ds := dataset(b).Clone()
	ds.Shuffle(rng.New(5))
	trainSet, valSet := ds.Split(0.8)
	model, err := core.Fit(trainSet, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := core.Evaluate(model, valSet)
	if err != nil {
		b.Fatal(err)
	}
	return stats.Mean(ev.HMRE) * 100
}

// BenchmarkAblationJointVsSplit compares the paper's single n→m network
// (§3.2) against m separate n→1 networks on identical data.
func BenchmarkAblationJointVsSplit(b *testing.B) {
	b.Run("joint-n-to-m", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = validationError(b, benchModelConfig([]int{16}, 1))
		}
		b.ReportMetric(e, "%err")
	})
	b.Run("split-n-to-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds := dataset(b).Clone()
			ds.Shuffle(rng.New(5))
			trainSet, valSet := ds.Split(0.8)
			var errSum float64
			for j := 0; j < ds.NumTargets(); j++ {
				sub := workload.NewDataset(ds.FeatureNames, []string{ds.TargetNames[j]})
				for _, s := range trainSet.Samples {
					sub.MustAppend(workload.Sample{X: s.X, Y: []float64{s.Y[j]}})
				}
				model, err := core.Fit(sub, benchModelConfig([]int{16}, 1))
				if err != nil {
					b.Fatal(err)
				}
				var actual, pred []float64
				for _, s := range valSet.Samples {
					actual = append(actual, s.Y[j])
					pred = append(pred, model.Predict(s.X)[0])
				}
				h, err := stats.HarmonicMeanRelativeError(actual, pred)
				if err != nil {
					h = 0
				}
				errSum += h
			}
			b.ReportMetric(errSum/float64(ds.NumTargets())*100, "%err")
		}
	})
}

// BenchmarkAblationStandardization measures §3.1's claim: training on raw
// (non-standardized) inputs traps gradient descent in bad minima.
func BenchmarkAblationStandardization(b *testing.B) {
	b.Run("standardized", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = validationError(b, benchModelConfig([]int{16}, 1))
		}
		b.ReportMetric(e, "%err")
	})
	b.Run("raw-inputs", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			cfg := benchModelConfig([]int{16}, 1)
			cfg.NoStandardize = true
			e = validationError(b, cfg)
		}
		b.ReportMetric(e, "%err")
	})
}

// BenchmarkAblationEarlyStopping sweeps the §3.3 termination threshold:
// loose fits generalize, tight fits overfit.
func BenchmarkAblationEarlyStopping(b *testing.B) {
	for _, tc := range []struct {
		name   string
		target float64
		epochs int
	}{
		{"loose-1e-2", 1e-2, 3000},
		{"paper-1e-4", 1e-4, 3000},
		{"tight-1e-7", 1e-7, 3000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				cfg := benchModelConfig([]int{16}, 1)
				t2 := *cfg.Train
				t2.TargetLoss = tc.target
				t2.MaxEpochs = tc.epochs
				cfg.Train = &t2
				e = validationError(b, cfg)
			}
			b.ReportMetric(e, "%err")
		})
	}
}

// BenchmarkAblationHiddenNodes sweeps the §3.2 node count.
func BenchmarkAblationHiddenNodes(b *testing.B) {
	for _, h := range []int{2, 4, 8, 16, 32} {
		b.Run(nodeName(h), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = validationError(b, benchModelConfig([]int{h}, 1))
			}
			b.ReportMetric(e, "%err")
		})
	}
}

func nodeName(h int) string {
	switch h {
	case 2:
		return "hidden-02"
	case 4:
		return "hidden-04"
	case 8:
		return "hidden-08"
	case 16:
		return "hidden-16"
	case 32:
		return "hidden-32"
	}
	return "hidden-n"
}

// BenchmarkAblationOptimizers compares the trainers on identical topology
// and budget.
func BenchmarkAblationOptimizers(b *testing.B) {
	cases := []struct {
		name string
		mk   func() (train.Optimizer, train.Mode)
	}{
		{"sgd-online", func() (train.Optimizer, train.Mode) { return &train.SGD{LR: 0.01}, train.Online }},
		{"momentum-online", func() (train.Optimizer, train.Mode) { return &train.Momentum{LR: 0.01, Mu: 0.9}, train.Online }},
		{"rprop-batch", func() (train.Optimizer, train.Mode) { return train.NewRPROP(), train.Batch }},
		{"adam-batch", func() (train.Optimizer, train.Mode) { return train.NewAdam(0.01), train.Batch }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				opt, mode := tc.mk()
				cfg := benchModelConfig([]int{16}, 1)
				t2 := *cfg.Train
				t2.Optimizer = opt
				t2.Mode = mode
				t2.MaxEpochs = 500
				cfg.Train = &t2
				e = validationError(b, cfg)
			}
			b.ReportMetric(e, "%err")
		})
	}
}

// --- Micro benches -------------------------------------------------------

// BenchmarkSimulatorRun measures one full simulation of the paper's
// operating point.
func BenchmarkSimulatorRun(b *testing.B) {
	cfg := threetier.Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	sys := benchSys()
	for i := 0; i < b.N; i++ {
		if _, err := threetier.Run(cfg, sys, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPredict measures one trained-model inference.
func BenchmarkModelPredict(b *testing.B) {
	ds := dataset(b)
	model, err := core.Fit(ds, benchModelConfig([]int{16}, 1))
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{560, 8, 16, 18}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(x)
	}
}

// BenchmarkSurfaceEvaluation measures a 12×13 surface grid evaluation (the
// figures' resolution).
func BenchmarkSurfaceEvaluation(b *testing.B) {
	ds := dataset(b)
	model, err := core.Fit(ds, benchModelConfig([]int{16}, 1))
	if err != nil {
		b.Fatal(err)
	}
	sl := surface.Slice{
		Fixed:   []float64{560, 0, 16, 0},
		XIndex:  1,
		YIndex:  3,
		XValues: surface.Linspace(2, 14, 12),
		YValues: surface.Linspace(10, 26, 13),
		Output:  4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surface.Evaluate(model, sl, 4, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearBaselineFit measures the prior-art model's training cost
// for contrast with the MLP's.
func BenchmarkLinearBaselineFit(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := linear.Fit(ds.Xs(), ds.Ys(), linear.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPTraining measures one full MLP training run on the bench
// dataset (the cost of the paper's model construction step).
func BenchmarkMLPTraining(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Fit(ds, benchModelConfig([]int{16}, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: the bench harness should never silently run against an empty
// dataset (a broken Collect would make every ablation meaningless).
func TestBenchDatasetSane(t *testing.T) {
	benchOnce.Do(func() {
		spec := threetier.SweepSpec{
			InjectionRates: []float64{480, 560},
			MfgThreads:     []int{8, 16},
			WebThreads:     []int{10, 14, 18, 22, 26},
			DefaultThreads: []int{2, 6, 10, 14},
			Replicates:     1,
		}
		ds, err := threetier.Collect(spec, benchSys(), 2006)
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	if benchDS.Len() != 2*2*5*4 {
		t.Fatalf("bench dataset has %d samples", benchDS.Len())
	}
	if err := benchDS.Validate(); err != nil {
		t.Fatal(err)
	}
	var _ nn.Activation = nn.Logistic{Alpha: 1} // keep the nn import honest
}

// BenchmarkSamplingDesigns regenerates the sample-design efficiency table.
func BenchmarkSamplingDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunSampling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImportance regenerates the permutation-importance experiment.
func BenchmarkImportance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunImportance(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeCountSelection regenerates the §3.2 topology-selection
// experiment.
func BenchmarkNodeCountSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickContext(b)
		if err := ctx.RunNodeCount(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEnsembleSize measures accuracy vs ensemble size: a
// variance-reduction upgrade over the paper's single-network protocol.
func BenchmarkAblationEnsembleSize(b *testing.B) {
	for _, n := range []int{1, 3, 5} {
		name := map[int]string{1: "members-1", 3: "members-3", 5: "members-5"}[n]
		b.Run(name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				ds := dataset(b).Clone()
				ds.Shuffle(rng.New(5))
				trainSet, valSet := ds.Split(0.8)
				ens, err := core.FitEnsemble(trainSet, benchModelConfig([]int{16}, 1), n)
				if err != nil {
					b.Fatal(err)
				}
				ev, err := core.Evaluate(ens, valSet)
				if err != nil {
					b.Fatal(err)
				}
				e = stats.Mean(ev.HMRE) * 100
			}
			b.ReportMetric(e, "%err")
		})
	}
}

// BenchmarkAblationWeightDecay compares the paper's loose-fit threshold
// against L2 weight decay as the flexibility control of §3.3.
func BenchmarkAblationWeightDecay(b *testing.B) {
	for _, tc := range []struct {
		name  string
		decay float64
	}{
		{"decay-0", 0},
		{"decay-1e-4", 1e-4},
		{"decay-1e-2", 1e-2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				cfg := benchModelConfig([]int{16}, 1)
				t2 := *cfg.Train
				t2.WeightDecay = tc.decay
				t2.TargetLoss = 0 // isolate the decay effect
				cfg.Train = &t2
				e = validationError(b, cfg)
			}
			b.ReportMetric(e, "%err")
		})
	}
}
