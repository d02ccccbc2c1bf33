package core

import (
	"context"
	"fmt"
	"math"

	"nnwc/internal/obs"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// Trial is one fold of a k-fold cross-validation: the model trained on the
// other k−1 folds, the datasets involved, and the per-indicator validation
// errors (harmonic mean of relative error, the paper's §3.3 metric).
type Trial struct {
	Model  *NNModel
	Train  *workload.Dataset
	Val    *workload.Dataset
	Errors []float64 // per indicator, as fractions (0.03 = 3%)
}

// emit emits fold f's "fold" event: its stop reason and per-indicator
// errors. Local and distributed folds emit it alike, so a merged cluster
// trace reads like a local one.
func (t Trial) emit(tr *obs.Trace, f int) {
	if !tr.Enabled() {
		return
	}
	fields := make([]obs.Field, 0, 3+len(t.Errors))
	fields = append(fields,
		obs.Int("fold", f),
		obs.String("stop_reason", string(t.Model.TrainResult.Reason)),
		obs.Float("mean_hmre", stats.MeanSkipNaN(t.Errors)))
	for j, e := range t.Errors {
		fields = append(fields, obs.Float("hmre_"+t.Val.TargetNames[j], e))
	}
	tr.Emit("fold", fields...)
}

// CVResult is the material behind the paper's Table 2: per-trial,
// per-indicator validation errors plus their averages.
type CVResult struct {
	TargetNames []string
	Trials      []Trial
	// Averages[j] is the mean over trials of indicator j's error. Trials
	// on which the metric was undefined (NaN, e.g. all-zero actuals in
	// the fold) are skipped; Averages[j] is NaN only when every trial was
	// undefined for that indicator.
	Averages []float64
}

// OverallError averages across indicators and trials, skipping indicators
// whose error is undefined (NaN) in every trial.
func (r *CVResult) OverallError() float64 { return stats.MeanSkipNaN(r.Averages) }

// OverallAccuracy is the paper's headline number: 1 − overall error
// (reported as "an average prediction accuracy of 95%").
func (r *CVResult) OverallAccuracy() float64 { return 1 - r.OverallError() }

// CrossValidate performs k-fold cross-validation per §3.3 on the
// scheduler's default worker count; see CrossValidateWorkers.
func CrossValidate(ds *workload.Dataset, cfg Config, k int, seed uint64) (*CVResult, error) {
	return CrossValidateWorkers(ds, cfg, k, seed, 0)
}

// CrossValidateWorkers performs k-fold cross-validation per §3.3: the
// shuffled dataset is divided into k equal folds; for each trial one fold
// is held out for validation and the rest train the model. The paper
// hand-tuned the node count and termination threshold on the first trial
// and reused them for the rest — here cfg plays that role for every trial.
//
// It runs CrossvalKind in process on up to `workers` goroutines (<= 0
// means the scheduler default), tracing into cfg.Trace. Each trial's seed
// derives from (seed, fold index) and the per-indicator averages reduce in
// fold order after all folds finish, so the result is bit-identical across
// worker counts — including the serial path the seed-reference test pins.
func CrossValidateWorkers(ds *workload.Dataset, cfg Config, k int, seed uint64, workers int) (*CVResult, error) {
	kind, err := CrossvalKind(ds, cfg, k, seed)
	if err != nil {
		return nil, err
	}
	return sched.Execute(obs.ContextWithTrace(context.TODO(), cfg.Trace), workers, kind)
}

// crossvalKind is k-fold cross-validation as a sched.Kind: one task per
// fold of one shared split.
type crossvalKind struct {
	split *CVSplit
	cfg   Config
	names []string
}

// CrossvalKind is the k-fold cross-validation of ds as a sched.Kind: task
// f trains and scores fold f of one shuffled split, and Reduce averages
// the trials in fold order. A fold traces its fit only when cfg.Trace is
// set, into the task's trace; the "fold" event goes there either way.
func CrossvalKind(ds *workload.Dataset, cfg Config, k int, seed uint64) (sched.Kind[Trial, *CVResult], error) {
	split, err := NewCVSplit(ds, k, seed)
	if err != nil {
		return nil, err
	}
	return &crossvalKind{split: split, cfg: cfg, names: append([]string(nil), ds.TargetNames...)}, nil
}

func (c *crossvalKind) Scope() string { return "cv-fold" }
func (c *crossvalKind) Tasks() int    { return len(c.split.folds) }

// Start emits cv_start.
func (c *crossvalKind) Start(ctx context.Context) {
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("cv_start",
			obs.Int("folds", c.Tasks()),
			obs.Int("samples", c.split.shuffled.Len()),
			obs.Int("targets", len(c.names)),
		)
	}
}

func (c *crossvalKind) Run(ctx context.Context, f int) (Trial, error) {
	tr := obs.TraceFromContext(ctx)
	cfg := c.cfg
	if cfg.Trace != nil {
		cfg.Trace = tr
	}
	trial, err := c.split.Fold(cfg, f)
	if err != nil {
		return Trial{}, err
	}
	trial.emit(tr, f)
	return trial, nil
}

// Reduce averages the trials in fold order and emits cv_summary.
func (c *crossvalKind) Reduce(ctx context.Context, trials []Trial) (*CVResult, error) {
	res := reduceTrials(c.names, trials)
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		fields := make([]obs.Field, 0, 1+len(res.Averages))
		fields = append(fields, obs.Float("overall_error", res.OverallError()))
		for j, a := range res.Averages {
			fields = append(fields, obs.Float("avg_hmre_"+res.TargetNames[j], a))
		}
		tr.Emit("cv_summary", fields...)
	}
	return res, nil
}

// CVSplit is the shuffled dataset and fold index sets of one k-fold
// cross-validation. It is read-only once built, so any number of folds,
// local or distributed, may train on one split at once.
type CVSplit struct {
	shuffled *workload.Dataset
	folds    [][]int
	seed     uint64
}

// NewCVSplit shuffles a clone of ds with seed and cuts it into k folds: the
// split every fold of CrossValidateWorkers(ds, _, k, seed, _) runs on.
func NewCVSplit(ds *workload.Dataset, k int, seed uint64) (*CVSplit, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("core: cross-validation needs a non-empty dataset")
	}
	shuffled := ds.Clone()
	shuffled.Shuffle(rng.New(seed))
	folds, err := shuffled.KFold(k)
	if err != nil {
		return nil, err
	}
	return &CVSplit{shuffled: shuffled, folds: folds, seed: seed}, nil
}

// TrainValidation returns fold f's training set (every other fold) and
// validation set (fold f), in split order.
func (s *CVSplit) TrainValidation(f int) (train, val *workload.Dataset) {
	return s.shuffled.TrainValidation(s.folds, f)
}

// Fold trains and evaluates fold f of the split, tracing into cfg.Trace:
// the per-fold unit both the local scheduler and the distributed plane
// execute. The fold's seed derives only from (seed, f), so its Errors are
// bit-identical wherever it runs.
func (s *CVSplit) Fold(cfg Config, f int) (Trial, error) {
	if f < 0 || f >= len(s.folds) {
		return Trial{}, fmt.Errorf("core: fold %d out of range [0,%d)", f, len(s.folds))
	}
	trainSet, valSet := s.TrainValidation(f)
	cfg.Seed = sched.FoldSeed(s.seed, f)
	model, err := Fit(trainSet, cfg)
	if err != nil {
		return Trial{}, fmt.Errorf("core: trial %d: %w", f+1, err)
	}
	ev, err := Evaluate(model, valSet)
	if err != nil {
		return Trial{}, fmt.Errorf("core: trial %d evaluation: %w", f+1, err)
	}
	return Trial{Model: model, Train: trainSet, Val: valSet, Errors: ev.HMRE}, nil
}

// CrossValidateFold computes fold `fold` of the k-fold protocol in
// isolation: the same shuffle, fold split, per-fold seed, training and
// evaluation CrossValidateWorkers performs for that fold, bit for bit.
// Callers running many folds of one split build it once (NewCVSplit).
func CrossValidateFold(ds *workload.Dataset, cfg Config, k int, seed uint64, fold int) (Trial, error) {
	split, err := NewCVSplit(ds, k, seed)
	if err != nil {
		return Trial{}, err
	}
	return split.Fold(cfg, fold)
}

// reduceTrials assembles a CVResult from per-fold trials, averaging each
// indicator in ascending fold order — the same floating-point summation
// order as the historical serial loop, whatever computed the folds (local
// workers or remote machines). Undefined (NaN) trials are left out of an
// indicator's average rather than poisoning it.
func reduceTrials(targetNames []string, trials []Trial) *CVResult {
	res := &CVResult{
		TargetNames: targetNames,
		Trials:      trials,
		Averages:    make([]float64, len(targetNames)),
	}
	for j := range res.Averages {
		var sum float64
		defined := 0
		for f := range trials {
			e := trials[f].Errors[j]
			if math.IsNaN(e) {
				continue
			}
			sum += e
			defined++
		}
		if defined == 0 {
			res.Averages[j] = math.NaN()
		} else {
			res.Averages[j] = sum / float64(defined)
		}
	}
	return res
}
