package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nnwc/internal/mat"
	"nnwc/internal/obs"
	"nnwc/internal/sched"
	"nnwc/internal/workload"
)

// Ensemble averages the predictions of several independently initialized
// NNModels. Back-propagation from random weights is a stochastic
// procedure (§3.1); averaging restarts reduces the variance contributed by
// unlucky initializations, and the member spread doubles as an uncertainty
// estimate — a practical upgrade the paper's single-network protocol
// leaves on the table.
type Ensemble struct {
	Members []*NNModel
}

// FitEnsemble trains n members concurrently on the scheduler's default
// worker count (sched.SetWorkers). Member i's seed derives from
// (cfg.Seed, i), so the trained members are bit-identical across worker
// counts.
func FitEnsemble(ds *workload.Dataset, cfg Config, n int) (*Ensemble, error) {
	if n < 1 {
		return nil, errors.New("core: ensemble needs at least one member")
	}
	// Members train concurrently; per-member trace events replay in
	// member order so the trace is deterministic.
	ctx := obs.ContextWithTrace(context.TODO(), cfg.Trace)
	members, err := sched.Map(ctx, 0, "ensemble-member", n, func(ctx context.Context, i int) (*NNModel, error) {
		memberCfg := cfg
		memberCfg.Seed = sched.TaskSeed(cfg.Seed, i)
		memberCfg.Trace = obs.TraceFromContext(ctx)
		m, err := Fit(ds, memberCfg)
		if err != nil {
			return nil, fmt.Errorf("core: training ensemble member %d: %w", i+1, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return &Ensemble{Members: members}, nil
}

// Predict returns the member-mean prediction.
func (e *Ensemble) Predict(x []float64) []float64 {
	mean, _ := e.PredictWithSpread(x)
	return mean
}

// PredictWithSpread returns the member-mean prediction and the per-output
// standard deviation across members. A large spread flags configurations
// where the data under-determines the model (often: extrapolation).
func (e *Ensemble) PredictWithSpread(x []float64) (mean, spread []float64) {
	m := e.OutputDim()
	mean = make([]float64, m)
	sumSq := make([]float64, m)
	for _, member := range e.Members {
		out := member.Predict(x)
		for j, v := range out {
			mean[j] += v
			sumSq[j] += v * v
		}
	}
	n := float64(len(e.Members))
	spread = make([]float64, m)
	for j := range mean {
		mean[j] /= n
		variance := sumSq[j]/n - mean[j]*mean[j]
		if variance < 0 {
			variance = 0
		}
		spread[j] = math.Sqrt(variance)
	}
	return mean, spread
}

// PredictMatrix returns the member-mean prediction for every row of X
// without allocating: members evaluate into w's lazily created sub
// workspace while the mean accumulates in w's output matrix, in member
// order, then divides once — the same floating-point sequence as Predict,
// so the two are bit-identical row for row. The returned matrix is w-owned
// scratch.
//
//nnwc:hotpath
func (e *Ensemble) PredictMatrix(X *mat.Matrix, w *PredictWorkspace) *mat.Matrix {
	if w.sub == nil {
		w.sub = newPredictWorkspace()
	}
	out := w.out.Reshape(X.Rows, e.OutputDim())
	out.Zero()
	for _, member := range e.Members {
		mat.AddScaledInto(out, 1, member.PredictMatrix(X, w.sub))
	}
	n := float64(len(e.Members))
	for k := range out.Data {
		out.Data[k] /= n
	}
	return out
}

// OutputDim returns the indicator dimensionality.
func (e *Ensemble) OutputDim() int { return e.Members[0].OutputDim() }
