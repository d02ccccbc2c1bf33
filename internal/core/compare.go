package core

import (
	"context"
	"fmt"

	"nnwc/internal/linear"
	"nnwc/internal/nn"
	"nnwc/internal/nn/rbf"
	"nnwc/internal/obs"
	"nnwc/internal/poly"
	"nnwc/internal/preprocess"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// Family is one model family in the §4 comparison: a name and a fitter.
// The seed argument matters only to the stochastic families (RBF, MLP,
// LNN); the closed-form ones ignore it.
type Family struct {
	Name string
	Fit  func(tr *workload.Dataset, seed uint64) (Predictor, error)
}

// CompareFamilies is the reproduction's model-family table, the one list
// that `nnwc compare`, the compare kind and `nnwc reproduce -run
// baseline`/`extrapolation` score: the closed-form baselines of prior work,
// the RBF alternative architecture of §2.1, the paper's MLP (trained with
// mlp's config) and the LNN of §5.3 (the same config over a log-compressing
// hidden layer). The stochastic families take their seed per fold.
func CompareFamilies(mlp Config) []Family {
	lnn := mlp
	lnn.HiddenActivation = nn.LogCompress{}
	fitWith := func(cfg Config) func(*workload.Dataset, uint64) (Predictor, error) {
		return func(tr *workload.Dataset, s uint64) (Predictor, error) {
			c := cfg
			c.Seed = s
			return Fit(tr, c)
		}
	}
	polyFit := func(degree int) func(*workload.Dataset, uint64) (Predictor, error) {
		return func(tr *workload.Dataset, _ uint64) (Predictor, error) {
			return poly.Fit(poly.Polynomial{Degree: degree, Interactions: true}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-4, Standardize: true})
		}
	}
	return []Family{
		// A whisker of ridge keeps the solve alive when a swept feature is
		// constant in the data (a pinned parameter makes OLS singular).
		{"linear (OLS)", func(tr *workload.Dataset, _ uint64) (Predictor, error) {
			return linear.Fit(tr.Xs(), tr.Ys(), linear.Options{Lambda: 1e-8})
		}},
		{"poly deg2+int", polyFit(2)},
		{"poly deg3+int", polyFit(3)},
		{"log features", func(tr *workload.Dataset, _ uint64) (Predictor, error) {
			return poly.Fit(poly.Logarithmic{}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-6})
		}},
		{"RBF network", fitRBF},
		{"MLP (paper)", fitWith(mlp)},
		{"LNN (Hines)", fitWith(lnn)},
	}
}

// fitRBF trains the §2.1 alternative architecture on standardized inputs
// and outputs (the Gaussian units need comparable feature scales just as
// the MLP does).
func fitRBF(tr *workload.Dataset, seed uint64) (Predictor, error) {
	xScaler := preprocess.NewStandardizer()
	if err := xScaler.Fit(tr.Xs()); err != nil {
		return nil, err
	}
	yScaler := preprocess.NewStandardizer()
	if err := yScaler.Fit(tr.Ys()); err != nil {
		return nil, err
	}
	net, err := rbf.Fit(
		preprocess.TransformAll(xScaler, tr.Xs()),
		preprocess.TransformAll(yScaler, tr.Ys()),
		rbf.Config{Centers: tr.Len() / 4, WidthScale: 2, Lambda: 1e-6, Seed: seed})
	if err != nil {
		return nil, err
	}
	return scaledPredictor{x: xScaler, y: yScaler, inner: net}, nil
}

// scaledPredictor wraps a predictor trained in standardized space.
type scaledPredictor struct {
	x, y  preprocess.Scaler
	inner Predictor
}

// Predict implements Predictor.
func (s scaledPredictor) Predict(x []float64) []float64 {
	return s.y.Inverse(s.inner.Predict(s.x.Transform(x)))
}

// FamilyMean is one model family's reduced comparison score.
type FamilyMean struct {
	Name string
	// Mean is the family's HMRE averaged over folds in ascending order.
	Mean float64
}

// compareKind is the §4 comparison as a sched.Kind: one task per (family,
// fold) cell of one shared split.
type compareKind struct {
	split *CVSplit
	fams  []Family
	k     int
	seed  uint64
}

// CompareKind is the §4 model-family comparison as a sched.Kind: task idx
// fits family idx/k on the training folds of fold idx%k of one k-fold
// split of ds, with seed seed+fold, and scores it on the held-out fold;
// Reduce averages each family's cells in ascending fold order.
func CompareKind(ds *workload.Dataset, fams []Family, k int, seed uint64) (sched.Kind[float64, []FamilyMean], error) {
	split, err := NewCVSplit(ds, k, seed)
	if err != nil {
		return nil, err
	}
	return &compareKind{split: split, fams: fams, k: k, seed: seed}, nil
}

func (c *compareKind) Scope() string { return "compare-cell" }
func (c *compareKind) Tasks() int    { return len(c.fams) * c.k }

func (c *compareKind) Run(ctx context.Context, idx int) (float64, error) {
	fi, f := idx/c.k, idx%c.k
	trainSet, valSet := c.split.TrainValidation(f)
	model, err := c.fams[fi].Fit(trainSet, c.seed+uint64(f))
	if err != nil {
		return 0, fmt.Errorf("%s fold %d: %w", c.fams[fi].Name, f+1, err)
	}
	ev, err := Evaluate(model, valSet)
	if err != nil {
		return 0, err
	}
	mean := stats.MeanSkipNaN(ev.HMRE)
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("compare_cell",
			obs.String("family", c.fams[fi].Name),
			obs.Int("fold", f),
			obs.Float("mean_hmre", mean))
	}
	return mean, nil
}

func (c *compareKind) Reduce(_ context.Context, cells []float64) ([]FamilyMean, error) {
	out := make([]FamilyMean, len(c.fams))
	for fi, fam := range c.fams {
		var errSum float64
		for f := 0; f < c.k; f++ {
			errSum += cells[fi*c.k+f]
		}
		out[fi] = FamilyMean{Name: fam.Name, Mean: errSum / float64(c.k)}
	}
	return out, nil
}
