// Package sensitivity partially recovers the analytical power the paper
// concedes in §5.3 ("it is hard to perform a quantitative analysis for a
// complete understanding of the individual contribution of a particular
// feature to the output ... we are trading off the analytical power of the
// model for generality"): permutation feature importance quantifies how
// much each configuration parameter contributes to each predicted
// indicator, and one-dimensional partial-dependence profiles expose the
// marginal shape of that contribution — both model-agnostic, so they work
// on the MLP without giving up its generality.
package sensitivity

import (
	"context"
	"errors"
	"fmt"

	"nnwc/internal/core"
	"nnwc/internal/obs"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// Importance holds the permutation-importance matrix: Scores[i][j] is the
// increase in RMSE of indicator j when feature i is permuted, normalized
// by the unpermuted RMSE (0 = irrelevant; 1 = permuting doubles the error).
type Importance struct {
	FeatureNames []string
	TargetNames  []string
	Scores       [][]float64
}

// Options tunes the estimators.
type Options struct {
	// Repeats averages the permutation over this many shuffles (default 5).
	Repeats int
	// Seed drives the permutations. Each feature's shuffles draw from a
	// stream derived from (Seed, feature index), so scores do not depend
	// on scheduling or worker count.
	Seed uint64
}

func (o Options) defaults() Options {
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	return o
}

// PermutationImportance scores every (feature, indicator) pair on the
// given dataset: ImportanceKind run in process on the scheduler's default
// worker count (sched.SetWorkers).
func PermutationImportance(p core.Predictor, ds *workload.Dataset, opt Options) (*Importance, error) {
	kind, err := ImportanceKind(p, ds, opt)
	if err != nil {
		return nil, err
	}
	return sched.Execute(context.TODO(), 0, kind)
}

// importanceKind is permutation importance as a sched.Kind: one task per
// feature, every task scoring against one shared baseline.
type importanceKind struct {
	p      core.Predictor
	ds     *workload.Dataset
	opt    Options
	base   []float64   // each indicator's unpermuted RMSE
	actual [][]float64 // each indicator's actual values, by sample
}

// ImportanceKind is permutation importance as a sched.Kind: task i scores
// feature i against every indicator, and Reduce stacks the scores into the
// Importance matrix. The unpermuted baseline is computed once, here.
func ImportanceKind(p core.Predictor, ds *workload.Dataset, opt Options) (sched.Kind[[]float64, *Importance], error) {
	if ds == nil || ds.Len() < 2 {
		return nil, errors.New("sensitivity: need at least 2 samples")
	}
	base, actual, err := baseline(p, ds)
	if err != nil {
		return nil, err
	}
	return &importanceKind{p: p, ds: ds, opt: opt.defaults(), base: base, actual: actual}, nil
}

func (k *importanceKind) Scope() string { return "importance-feature" }
func (k *importanceKind) Tasks() int    { return k.ds.NumFeatures() }

func (k *importanceKind) Run(ctx context.Context, i int) ([]float64, error) {
	scores := k.scoreFeature(i)
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("importance_feature",
			obs.Int("feature", i),
			obs.String("name", k.ds.FeatureNames[i]),
			obs.Float("mean_score", stats.MeanSkipNaN(scores)))
	}
	return scores, nil
}

func (k *importanceKind) Reduce(_ context.Context, scores [][]float64) (*Importance, error) {
	return &Importance{
		FeatureNames: append([]string(nil), k.ds.FeatureNames...),
		TargetNames:  append([]string(nil), k.ds.TargetNames...),
		Scores:       scores,
	}, nil
}

// baseline computes each indicator's unpermuted RMSE (floored at 1e-12
// when exactly zero, so a perfect fit's "infinite" degradation stays
// finite) plus the actual-value columns the permuted passes re-score
// against.
func baseline(p core.Predictor, ds *workload.Dataset) (base []float64, actual [][]float64, err error) {
	m := ds.NumTargets()
	base = make([]float64, m)
	actual = make([][]float64, m)
	pred := make([][]float64, m)
	for _, s := range ds.Samples {
		out := p.Predict(s.X)
		if len(out) != m {
			return nil, nil, errors.New("sensitivity: predictor output does not match dataset targets")
		}
		for j := 0; j < m; j++ {
			actual[j] = append(actual[j], s.Y[j])
			pred[j] = append(pred[j], out[j])
		}
	}
	for j := 0; j < m; j++ {
		base[j] = stats.RMSE(actual[j], pred[j])
		if stats.ExactZero(base[j]) {
			base[j] = 1e-12 // perfect fit: any degradation is "infinite"; cap via epsilon
		}
	}
	return base, actual, nil
}

// scoreFeature scores feature i against every indicator: the mean
// relative RMSE increase over opt.Repeats permutations, clamped at 0.
// The permutation stream derives only from (opt.Seed, i), so the score
// vector is identical wherever it is computed.
func (k *importanceKind) scoreFeature(i int) []float64 {
	ds, repeats := k.ds, k.opt.Repeats
	n := ds.NumFeatures()
	m := ds.NumTargets()
	src := rng.New(sched.TaskSeed(k.opt.Seed, i))
	xbuf := make([]float64, n)
	scores := make([]float64, m)
	col := ds.FeatureColumn(i)
	for rep := 0; rep < repeats; rep++ {
		perm := src.Perm(len(col))
		permPred := make([][]float64, m)
		for r, s := range ds.Samples {
			copy(xbuf, s.X)
			xbuf[i] = col[perm[r]]
			out := k.p.Predict(xbuf)
			for j := 0; j < m; j++ {
				permPred[j] = append(permPred[j], out[j])
			}
		}
		for j := 0; j < m; j++ {
			rmse := stats.RMSE(k.actual[j], permPred[j])
			scores[j] += (rmse - k.base[j]) / k.base[j] / float64(repeats)
		}
	}
	for j := 0; j < m; j++ {
		if scores[j] < 0 {
			scores[j] = 0 // permutation noise can dip below zero
		}
	}
	return scores
}

// Profile is a one-dimensional partial-dependence curve: the model's mean
// prediction for one indicator as one feature sweeps its range with all
// other features held at the dataset's observed rows.
type Profile struct {
	Feature string
	Target  string
	X       []float64
	Y       []float64
}

// PartialDependence computes the profile of feature i against indicator j
// over the given grid values.
func PartialDependence(p core.Predictor, ds *workload.Dataset, feature, target int, grid []float64) (*Profile, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("sensitivity: empty dataset")
	}
	if feature < 0 || feature >= ds.NumFeatures() {
		return nil, fmt.Errorf("sensitivity: feature index %d out of range", feature)
	}
	if target < 0 || target >= ds.NumTargets() {
		return nil, fmt.Errorf("sensitivity: target index %d out of range", target)
	}
	if len(grid) == 0 {
		return nil, errors.New("sensitivity: empty grid")
	}
	prof := &Profile{
		Feature: ds.FeatureNames[feature],
		Target:  ds.TargetNames[target],
		X:       append([]float64(nil), grid...),
		Y:       make([]float64, len(grid)),
	}
	xbuf := make([]float64, ds.NumFeatures())
	for gi, gv := range grid {
		var sum float64
		for _, s := range ds.Samples {
			copy(xbuf, s.X)
			xbuf[feature] = gv
			sum += p.Predict(xbuf)[target]
		}
		prof.Y[gi] = sum / float64(ds.Len())
	}
	return prof, nil
}
