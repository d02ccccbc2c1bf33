// Package core is the paper's primary contribution as a library: a
// non-linear workload-characterization model built from a multilayer
// perceptron, together with the §3 methodology around it — sample
// pre-processing (standardization), model-parameter selection, loose-fit
// training with a termination threshold, and k-fold cross-validation with
// the harmonic-mean relative-error metric that produces Table 2.
//
// The flow mirrors the paper: collect samples (X = configuration,
// Y = performance indicators), standardize, train one n→m MLP per workload
// with gradient-descent back-propagation, validate with k-fold CV, then use
// the trained model to predict unseen configurations and drive tuning
// analyses (package surface) and configuration recommendation (package
// recommend).
package core

import (
	"errors"
	"fmt"
	"slices"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/obs"
	"nnwc/internal/preprocess"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// Predictor is anything that maps a configuration vector to predicted
// performance indicators. The MLP model, the linear baseline adapters, and
// the polynomial models all satisfy it.
type Predictor interface {
	Predict(x []float64) []float64
}

// BatchPredictor is the serving plane's predictor: a Predictor that
// evaluates a request's rows in one call (NNModel routes them through the
// batched forward kernels).
type BatchPredictor interface {
	Predictor
	PredictAll(xs [][]float64) [][]float64
}

// MatrixPredictor is a Predictor that can evaluate a whole input matrix
// into workspace-owned output without allocating — the entry point the
// experiment plane (fold evaluation, surface probing, ensemble prediction)
// rides so steady-state sweeps stay allocation-free. NNModel and Ensemble
// implement it; any other Predictor is evaluated row by row.
type MatrixPredictor interface {
	Predictor
	// PredictMatrix evaluates every row of X (one configuration per row)
	// and returns the native-unit predictions, one row per input row. The
	// returned matrix is owned by w and only valid until the workspace's
	// next use; callers that keep the values must copy them out first.
	PredictMatrix(X *mat.Matrix, w *PredictWorkspace) *mat.Matrix
}

// Config specifies an NNModel. Zero values get sensible defaults from
// Defaults.
type Config struct {
	// Hidden lists hidden-layer node counts, e.g. {12} or {16, 8}. The
	// paper tunes this per workload (§3.2).
	Hidden []int
	// HiddenActivation defaults to the paper's logistic sigmoid with
	// slope 1.
	HiddenActivation nn.Activation
	// OutputActivation defaults to identity (unbounded regression).
	OutputActivation nn.Activation
	// NoStandardize leaves inputs and outputs in native units; it is for
	// the §3.1 ablation only. Otherwise inputs are z-scored, and outputs
	// too when there is more than one target (§3.1: a single target needs
	// no rescaling).
	NoStandardize bool
	// Train defaults to train.DefaultConfig (full-batch RPROP with the
	// paper's loose-fit loss threshold).
	Train *train.Config
	// Seed drives weight initialization and any training shuffles.
	Seed uint64
	// Trace receives structured run events (training epochs, fold
	// summaries, spans). nil disables tracing. Traces never consume
	// randomness, so results are identical with tracing on or off.
	Trace *obs.Trace
}

// Defaults fills unset fields and returns the completed config.
func (c Config) Defaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{12}
	}
	if c.HiddenActivation == nil {
		c.HiddenActivation = nn.Logistic{Alpha: 1}
	}
	if c.OutputActivation == nil {
		c.OutputActivation = nn.Identity{}
	}
	if c.Train == nil {
		tc := train.DefaultConfig()
		c.Train = &tc
	}
	return c
}

// NNModel is a trained neural-network workload model: scalers fitted on the
// training data, the MLP, and the schema it was trained against.
type NNModel struct {
	FeatureNames []string
	TargetNames  []string

	XScaler preprocess.Scaler
	YScaler preprocess.Scaler
	Net     *nn.Network

	// FeatureMin/FeatureMax record the training envelope: the per-feature
	// extremes of the fit dataset. Consumers (the prediction server) use
	// them to flag extrapolating queries; models persisted before this
	// field leave them nil.
	FeatureMin []float64
	FeatureMax []float64

	// TrainResult records how training terminated.
	TrainResult train.Result
}

// Fit trains an NNModel on the dataset per the §3 methodology. The dataset
// is not modified.
func Fit(ds *workload.Dataset, cfg Config) (*NNModel, error) {
	return fit(ds, nil, cfg)
}

// fit trains on ds, monitoring val (when non-empty) for early stopping
// (cfg.Train.Patience > 0) and validation telemetry.
func fit(ds, val *workload.Dataset, cfg Config) (*NNModel, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: training dataset is empty")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Defaults()
	if slices.Min(cfg.Hidden) < 1 {
		return nil, fmt.Errorf("core: hidden layer sizes %v must all be at least 1", cfg.Hidden)
	}

	m := &NNModel{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		TargetNames:  append([]string(nil), ds.TargetNames...),
	}
	m.FeatureMin = make([]float64, ds.NumFeatures())
	m.FeatureMax = make([]float64, ds.NumFeatures())
	copy(m.FeatureMin, ds.Samples[0].X)
	copy(m.FeatureMax, ds.Samples[0].X)
	for _, s := range ds.Samples[1:] {
		for j, v := range s.X {
			if v < m.FeatureMin[j] {
				m.FeatureMin[j] = v
			}
			if v > m.FeatureMax[j] {
				m.FeatureMax[j] = v
			}
		}
	}

	// §3.1 pre-processing.
	m.XScaler, m.YScaler = preprocess.NewIdentity(), preprocess.NewIdentity()
	if !cfg.NoStandardize {
		m.XScaler = preprocess.NewStandardizer()
		if ds.NumTargets() > 1 {
			m.YScaler = preprocess.NewStandardizer()
		}
	}
	if err := m.XScaler.Fit(ds.Xs()); err != nil {
		return nil, fmt.Errorf("core: fitting input scaler: %w", err)
	}
	if err := m.YScaler.Fit(ds.Ys()); err != nil {
		return nil, fmt.Errorf("core: fitting output scaler: %w", err)
	}

	// Topology: n → hidden… → m (§3.2).
	sizes := append([]int{ds.NumFeatures()}, cfg.Hidden...)
	sizes = append(sizes, ds.NumTargets())
	m.Net = nn.NewNetwork(sizes, cfg.HiddenActivation, cfg.OutputActivation)
	src := rng.New(cfg.Seed)
	nn.XavierInit(m.Net, src)

	tc := *cfg.Train
	if cfg.Trace != nil {
		tc.Trace = cfg.Trace
	}
	trainer := trainerPool.Get()
	defer trainerPool.Put(trainer)
	defer trainer.Release()
	if err := trainer.Reset(tc, src.Split()); err != nil {
		return nil, err
	}
	m.standardizeInto(&trainer.X, &trainer.Y, ds)
	hasVal := val != nil && val.Len() > 0
	if hasVal {
		if val.NumFeatures() != ds.NumFeatures() || val.NumTargets() != ds.NumTargets() {
			return nil, errors.New("core: validation dataset schema differs from training")
		}
		m.standardizeInto(&trainer.VX, &trainer.VY, val)
	}
	res, err := trainer.FitStaged(m.Net, hasVal)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	m.TrainResult = res
	return m, nil
}

// standardizeInto writes every sample of ds, through m's scalers, into
// the rows of X and Y.
func (m *NNModel) standardizeInto(X, Y *mat.Matrix, ds *workload.Dataset) {
	X.Reshape(ds.Len(), ds.NumFeatures())
	Y.Reshape(ds.Len(), ds.NumTargets())
	for i, s := range ds.Samples {
		preprocess.TransformInto(m.XScaler, X.Row(i), s.X)
		preprocess.TransformInto(m.YScaler, Y.Row(i), s.Y)
	}
}

// trainerPool keeps warm trainers: a fit at a shape seen before (every
// fold after the first) reuses one's buffers.
var trainerPool = sched.NewPool(func() *train.Trainer { return &train.Trainer{} })

// Predict maps one configuration to predicted indicators in native units.
func (m *NNModel) Predict(x []float64) []float64 {
	return m.YScaler.Inverse(m.Net.Forward(m.XScaler.Transform(x)))
}

// PredictWorkspace bundles every buffer a PredictMatrix call needs: the
// row-copied input staging matrix, the standardized inputs, the forward
// workspace, and the output matrix the call returns.
// The zero value is ready to use; buffers grow on first use and are
// retained across calls, so steady-state prediction sweeps run without
// allocating. A workspace must not be used concurrently; pool workspaces
// (sched.NewPool) to share them across goroutines.
type PredictWorkspace struct {
	in   mat.Matrix // caller rows staged for the matrix path (PredictAll)
	xstd mat.Matrix // standardized inputs
	out  mat.Matrix // native-unit predictions, returned by PredictMatrix
	ws   nn.BatchWorkspace

	// sub holds the member scratch an Ensemble prediction needs while the
	// mean accumulates in out; lazily created on first ensemble use.
	sub *PredictWorkspace
}

// newPredictWorkspace is the (cold) allocation site for workspaces; the
// hot paths only ever reuse pooled ones.
func newPredictWorkspace() *PredictWorkspace { return &PredictWorkspace{} }

var predictPool = sched.NewPool(newPredictWorkspace)

// PredictMatrix evaluates every row of X through one batched forward pass
// without allocating, writing standardized inputs, activations and
// native-unit outputs into w. Row for row the values are bit-identical to
// Predict. The returned matrix is w-owned scratch.
//
//nnwc:hotpath
func (m *NNModel) PredictMatrix(X *mat.Matrix, w *PredictWorkspace) *mat.Matrix {
	w.xstd.Reshape(X.Rows, X.Cols)
	for i := 0; i < X.Rows; i++ {
		preprocess.TransformInto(m.XScaler, w.xstd.Row(i), X.Row(i))
	}
	pred := m.Net.ForwardBatch(&w.xstd, &w.ws)
	w.out.Reshape(pred.Rows, pred.Cols)
	for i := 0; i < pred.Rows; i++ {
		preprocess.InverseInto(m.YScaler, w.out.Row(i), pred.Row(i))
	}
	return &w.out
}

// PredictAll maps Predict over rows through one batched forward pass; the
// per-row results are bit-identical to calling Predict on each row.
func (m *NNModel) PredictAll(xs [][]float64) [][]float64 {
	if len(xs) == 0 {
		return nil
	}
	w := predictPool.Get()
	defer predictPool.Put(w)
	w.in.CopyRows(xs)
	return rowsCopy(m.PredictMatrix(&w.in, w))
}

// rowsCopy materializes caller-owned rows from a workspace-owned matrix —
// the boundary between the zero-alloc matrix plane and the [][]float64
// convenience API.
func rowsCopy(p *mat.Matrix) [][]float64 {
	out := make([][]float64, p.Rows)
	for i := range out {
		out[i] = append([]float64(nil), p.Row(i)...)
	}
	return out
}

// InputDim returns the configuration dimensionality n.
func (m *NNModel) InputDim() int { return m.Net.InputDim() }

// OutputDim returns the indicator dimensionality m.
func (m *NNModel) OutputDim() int { return m.Net.OutputDim() }
