package core

import (
	"errors"
	"math"

	"nnwc/internal/mat"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// Evaluation holds per-indicator error metrics of a predictor on a dataset.
type Evaluation struct {
	TargetNames []string
	// HMRE is the paper's §3.3 metric per indicator: harmonic mean of
	// |error| / actual over the dataset. An indicator on which the metric
	// is undefined (e.g. all-zero actuals leave no relative errors) holds
	// NaN, not 0 — 0 would read as a perfect prediction.
	HMRE []float64
	// MAPE, RMSE and R2 are conventional metrics for cross-checking.
	MAPE []float64
	RMSE []float64
	R2   []float64
}

// MeanHMRE averages the paper metric across the indicators on which it is
// defined; undefined (NaN) indicators are skipped. It is NaN only when no
// indicator is defined.
func (e *Evaluation) MeanHMRE() float64 { return stats.MeanSkipNaN(e.HMRE) }

// Undefined lists the indicators whose HMRE is undefined on this dataset
// (skipped by MeanHMRE), so reports can surface the skip.
func (e *Evaluation) Undefined() []string {
	var out []string
	for j, h := range e.HMRE {
		if math.IsNaN(h) {
			out = append(out, e.TargetNames[j])
		}
	}
	return out
}

var errPredictorDim = errors.New("core: predictor output dimensionality does not match dataset")

// evalScratch bundles the batch-sized buffers one Evaluate call needs: the
// input staging matrix, the predict workspace, and the target × sample
// actual/pred column matrices the metric kernels consume. Pooled so the
// parallel experiment plane (fold evaluations, member scoring) reuses
// buffers across calls and goroutines.
type evalScratch struct {
	in           mat.Matrix
	w            PredictWorkspace
	actual, pred mat.Matrix
}

var evalPool = sched.NewPool(func() *evalScratch { return &evalScratch{} })

// Evaluate scores p on every sample of ds. Only the returned Evaluation is
// allocated; the batch-sized intermediates come from a pooled scratch.
func Evaluate(p Predictor, ds *workload.Dataset) (*Evaluation, error) {
	if ds.Len() == 0 {
		return nil, errors.New("core: cannot evaluate on an empty dataset")
	}
	m := ds.NumTargets()
	sc := evalPool.Get()
	defer evalPool.Put(sc)
	if err := gatherColumns(p, ds, sc); err != nil {
		return nil, err
	}
	ev := &Evaluation{
		TargetNames: append([]string(nil), ds.TargetNames...),
		HMRE:        make([]float64, m),
		MAPE:        make([]float64, m),
		RMSE:        make([]float64, m),
		R2:          make([]float64, m),
	}
	for j := 0; j < m; j++ {
		actual, pred := sc.actual.Row(j), sc.pred.Row(j)
		h, err := stats.HarmonicMeanRelativeError(actual, pred)
		if err != nil {
			// All-zero actuals leave no relative errors: the metric is
			// undefined for this indicator. NaN keeps it out of the
			// averages instead of counting as a perfect prediction.
			h = math.NaN()
		}
		ev.HMRE[j] = h
		ev.MAPE[j] = stats.MAPE(actual, pred)
		ev.RMSE[j] = stats.RMSE(actual, pred)
		ev.R2[j] = stats.R2(actual, pred)
	}
	return ev, nil
}

// gatherColumns fills sc.actual and sc.pred (targets × samples) with the
// dataset's measured indicators and p's predictions, taking the zero-alloc
// matrix path when p supports it.
func gatherColumns(p Predictor, ds *workload.Dataset, sc *evalScratch) error {
	n, m := ds.Len(), ds.NumTargets()
	sc.actual.Reshape(m, n)
	sc.pred.Reshape(m, n)
	if mp, ok := p.(MatrixPredictor); ok {
		return gatherMatrix(mp, ds, sc)
	}
	for i, s := range ds.Samples {
		out := p.Predict(s.X)
		if len(out) != m {
			return errPredictorDim
		}
		for j := 0; j < m; j++ {
			sc.actual.Row(j)[i] = s.Y[j]
			sc.pred.Row(j)[i] = out[j]
		}
	}
	return nil
}

// gatherMatrix is gatherColumns' fast path: configurations stage into the
// scratch input matrix, one PredictMatrix call evaluates the whole dataset,
// and the outputs transpose into the per-target columns.
//
//nnwc:hotpath
func gatherMatrix(mp MatrixPredictor, ds *workload.Dataset, sc *evalScratch) error {
	m := ds.NumTargets()
	sc.in.Reshape(ds.Len(), ds.NumFeatures())
	for i := range ds.Samples {
		copy(sc.in.Row(i), ds.Samples[i].X)
	}
	out := mp.PredictMatrix(&sc.in, &sc.w)
	if out.Cols != m {
		return errPredictorDim
	}
	for j := 0; j < m; j++ {
		arow, prow := sc.actual.Row(j), sc.pred.Row(j)
		for i := range ds.Samples {
			arow[i] = ds.Samples[i].Y[j]
			prow[i] = out.At(i, j)
		}
	}
	return nil
}
