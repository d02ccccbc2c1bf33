package core

import (
	"testing"

	"nnwc/internal/sched"
)

// The scheduler's contract: every parallel experiment-plane entry point is
// bit-identical across worker counts, because seeds derive from task
// indices and floating-point reductions replay in task order.

func quickCVConfig() Config {
	cfg := fastConfig()
	tc := *cfg.Train
	tc.MaxEpochs = 120
	cfg.Train = &tc
	return cfg
}

func TestCrossValidateWorkersBitIdentical(t *testing.T) {
	ds := syntheticDataset(60, 7)
	cfg := quickCVConfig()
	ref, err := CrossValidateWorkers(ds, cfg, 5, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := CrossValidateWorkers(ds, cfg, 5, 42, w)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.Averages {
			if got.Averages[j] != ref.Averages[j] {
				t.Fatalf("workers=%d average[%d] = %v, workers=1 gave %v", w, j, got.Averages[j], ref.Averages[j])
			}
		}
		for f := range ref.Trials {
			for j := range ref.Trials[f].Errors {
				if got.Trials[f].Errors[j] != ref.Trials[f].Errors[j] {
					t.Fatalf("workers=%d trial %d error[%d] = %v, workers=1 gave %v",
						w, f, j, got.Trials[f].Errors[j], ref.Trials[f].Errors[j])
				}
			}
		}
	}
}

func TestFitEnsembleWorkersBitIdentical(t *testing.T) {
	ds := syntheticDataset(60, 7)
	cfg := quickCVConfig()
	defer sched.SetWorkers(0)
	sched.SetWorkers(1)
	ref, err := FitEnsemble(ds, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0.3, -1.1}, {-1.7, 0.9}, {1.2, 1.2}}
	for _, w := range []int{2, 8} {
		sched.SetWorkers(w)
		got, err := FitEnsemble(ds, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range probe {
			want, have := ref.Predict(x), got.Predict(x)
			for j := range want {
				if have[j] != want[j] {
					t.Fatalf("workers=%d prediction[%d][%d] = %v, workers=1 gave %v",
						w, i, j, have[j], want[j])
				}
			}
		}
	}
}

// A Config whose *train.Config (and its stateful optimizer) is shared
// across concurrent fits must still produce the serial results — trainers
// clone the optimizer at construction.
func TestSharedConfigSafeAcrossConcurrentFits(t *testing.T) {
	ds := syntheticDataset(60, 7)
	cfg := quickCVConfig()
	serial := make([]*NNModel, 3)
	for i := range serial {
		c := cfg
		c.Seed = uint64(100 + i)
		m, err := Fit(ds, c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = m
	}
	ch := make(chan error, len(serial))
	models := make([]*NNModel, len(serial))
	for i := range models {
		go func(i int) {
			c := cfg
			c.Seed = uint64(100 + i)
			m, err := Fit(ds, c)
			models[i] = m
			ch <- err
		}(i)
	}
	for range models {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	probe := []float64{0.5, 0.5}
	for i := range models {
		want := serial[i].Predict(probe)
		got := models[i].Predict(probe)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("model %d output[%d]: concurrent %v vs serial %v", i, j, got[j], want[j])
			}
		}
	}
}
