// Package jobs binds the distributed experiment plane to the experiment
// kinds the CLI schedules locally: cross-validation folds, model-family
// compare cells, surface-grid rows, permutation-importance features, and
// topology-selection candidates. Each kind defines
//
//   - a primitive-only config (core.Config carries interfaces, so the wire
//     form re-derives it exactly the way cmd/nnwc does),
//   - a worker-side Runner computing one index's payload, and
//   - a coordinator-side Coordinate* function that builds the Spec, serves
//     the artifacts, and reduces the index-addressed payloads in the same
//     order as the local scheduler — bit-identical results either way.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/linear"
	"nnwc/internal/nn"
	"nnwc/internal/obs"
	"nnwc/internal/poly"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// Job kinds (Spec.Kind values).
const (
	KindCrossval   = "crossval"
	KindCompare    = "compare"
	KindSurface    = "surface"
	KindImportance = "importance"
	KindSelect     = "select"
)

// Artifact roles (Spec.Artifacts keys).
const (
	RoleDataset = "dataset"
	RoleModel   = "model"
)

// ParseLayout parses a comma-separated hidden-layer spec ("16" or "16,8")
// into layer sizes. Sizes are parsed as floats and truncated, as the CLI's
// -hidden flag always has, so local and distributed runs derive identical
// configs from identical strings. A size that is not finite or truncates
// below 1 is an error.
func ParseLayout(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		if !(v >= 1 && v <= math.MaxInt32) {
			return nil, fmt.Errorf("hidden layer size %q must be a finite number from 1 to %d", p, math.MaxInt32)
		}
		out = append(out, int(v))
	}
	return out, nil
}

// ModelConfig derives the MLP training config from the CLI's primitive
// flags — the single definition both cmd/nnwc and the worker-side runners
// use, so a shipped (hidden, epochs, seed) triple reconstructs the exact
// config the local path would have built.
func ModelConfig(hidden string, epochs int, seed uint64) (core.Config, error) {
	sizes, err := ParseLayout(hidden)
	if err != nil {
		return core.Config{}, fmt.Errorf("parsing -hidden: %w", err)
	}
	tc := train.DefaultConfig()
	if epochs > 0 {
		tc.MaxEpochs = epochs
	}
	return core.Config{Hidden: sizes, Train: &tc, Seed: seed}, nil
}

// Family is one model family in the §4 comparison: a name and a fitter.
// The seed argument matters only to the stochastic families (mlp, lnn);
// the closed-form ones ignore it.
type Family struct {
	Name string
	Fit  func(tr *workload.Dataset, seed uint64) (core.Predictor, error)
}

// CompareFamilies is the §4 model-family table — the one list both
// cmdCompareRun and the distributed compare runner draw from, so a
// compare cell computes the same bits wherever it lands.
func CompareFamilies(hidden string, epochs int) ([]Family, error) {
	mlpCfg, err := ModelConfig(hidden, epochs, 0)
	if err != nil {
		return nil, err
	}
	lnnCfg := mlpCfg
	lnnCfg.HiddenActivation = nn.LogCompress{}
	return []Family{
		// A whisker of ridge keeps the solve alive when a swept feature is
		// constant in the data (a pinned parameter makes OLS singular).
		{"linear", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return linear.Fit(tr.Xs(), tr.Ys(), linear.Options{Lambda: 1e-8})
		}},
		{"poly2+int", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return poly.Fit(poly.Polynomial{Degree: 2, Interactions: true}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-4, Standardize: true})
		}},
		{"log", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return poly.Fit(poly.Logarithmic{}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-8})
		}},
		{"mlp", func(tr *workload.Dataset, s uint64) (core.Predictor, error) {
			cfg := mlpCfg
			cfg.Seed = s
			return core.Fit(tr, cfg)
		}},
		{"lnn", func(tr *workload.Dataset, s uint64) (core.Predictor, error) {
			cfg := lnnCfg
			cfg.Seed = s
			return core.Fit(tr, cfg)
		}},
	}, nil
}

// CompareCell fits and scores one (family, fold) cell of the comparison
// grid on split, a k-fold split: idx/k selects the family, idx%k the
// held-out fold, and the fit seed is seed+fold — the cell Compare and the
// distributed compare runner both compute.
func CompareCell(split *core.CVSplit, fams []Family, k int, seed uint64, idx int) (float64, error) {
	if idx < 0 || idx >= len(fams)*k {
		return 0, fmt.Errorf("jobs: compare cell %d out of range [0,%d)", idx, len(fams)*k)
	}
	fi, f := idx/k, idx%k
	trainSet, valSet := split.TrainValidation(f)
	model, err := fams[fi].Fit(trainSet, seed+uint64(f))
	if err != nil {
		return 0, fmt.Errorf("%s fold %d: %w", fams[fi].Name, f+1, err)
	}
	ev, err := core.Evaluate(model, valSet)
	if err != nil {
		return 0, err
	}
	return stats.MeanSkipNaN(ev.HMRE), nil
}

// Compare runs the §4 model-family comparison in process: every (family,
// fold) cell of one k-fold split of ds fans out over up to workers
// goroutines, and each family's cells reduce in ascending fold order, as
// CoordinateCompare reduces the same cells computed remotely. Cell spans
// and events buffer per index and replay in order into tr, keeping the
// trace deterministic.
func Compare(ds *workload.Dataset, k int, hidden string, epochs int, seed uint64, workers int, tr *obs.Trace) ([]FamilyMean, error) {
	fams, err := CompareFamilies(hidden, epochs)
	if err != nil {
		return nil, err
	}
	split, err := core.NewCVSplit(ds, k, seed)
	if err != nil {
		return nil, err
	}
	fork := tr.Fork(len(fams) * k)
	cells, err := sched.MapWorker(workers, len(fams)*k, func(idx, w int) (float64, error) {
		slot := fork.Slot(idx)
		span := slot.StartSpan("compare-cell", idx, w)
		defer span.End()
		mean, err := CompareCell(split, fams, k, seed, idx)
		if err != nil {
			return 0, err
		}
		emitCompareCell(slot, fams, k, idx, mean)
		return mean, nil
	})
	fork.Join()
	if err != nil {
		return nil, err
	}
	return familyMeans(fams, k, cells), nil
}

// emitCompareCell records one cell's result.
func emitCompareCell(tr *obs.Trace, fams []Family, k, idx int, mean float64) {
	if tr.Enabled() {
		tr.Emit("compare_cell",
			obs.String("family", fams[idx/k].Name),
			obs.Int("fold", idx%k),
			obs.Float("mean_hmre", mean))
	}
}

// familyMeans averages each family's k fold cells, summed in ascending
// fold order.
func familyMeans(fams []Family, k int, cells []float64) []FamilyMean {
	out := make([]FamilyMean, len(fams))
	for fi, fam := range fams {
		var errSum float64
		for f := 0; f < k; f++ {
			errSum += cells[fi*k+f]
		}
		out[fi] = FamilyMean{Name: fam.Name, Mean: errSum / float64(k)}
	}
	return out
}

// Per-kind wire configs (Spec.Config payloads). Primitives only: the
// worker re-derives core.Config and surface.Slice from these the same way
// the CLI does from its flags.

// CrossvalConfig parameterizes a KindCrossval job; NumTasks is k.
type CrossvalConfig struct {
	K      int    `json:"k"`
	Hidden string `json:"hidden"`
	Epochs int    `json:"epochs"`
}

// CompareConfig parameterizes a KindCompare job; NumTasks is families×k.
type CompareConfig struct {
	K      int    `json:"k"`
	Hidden string `json:"hidden"`
	Epochs int    `json:"epochs"`
}

// SurfaceConfig parameterizes a KindSurface job; NumTasks is len(XValues)
// (one task per grid row).
type SurfaceConfig struct {
	Fixed   dist.Floats `json:"fixed"`
	XIndex  int         `json:"xi"`
	YIndex  int         `json:"yi"`
	XValues dist.Floats `json:"xvalues"`
	YValues dist.Floats `json:"yvalues"`
	Output  int         `json:"output"`
}

// ImportanceConfig parameterizes a KindImportance job; NumTasks is the
// dataset's feature count.
type ImportanceConfig struct {
	Repeats int `json:"repeats"`
}

// SelectConfig parameterizes a KindSelect job; NumTasks is len(Candidates).
type SelectConfig struct {
	K          int     `json:"k"`
	Epochs     int     `json:"epochs"`
	Candidates [][]int `json:"candidates"`
}

// Per-kind result payloads. Every float crosses the wire as dist.Float(s)
// so NaN-valued HMREs and exact bits survive JSON.

// TrialResult is one cross-validation fold's payload.
type TrialResult struct {
	Errors dist.Floats `json:"errors"`
}

// CellResult is one compare cell's payload.
type CellResult struct {
	Mean dist.Float `json:"mean"`
}

// RowResult is one surface grid row's payload.
type RowResult struct {
	Z dist.Floats `json:"z"`
}

// ScoresResult is one feature's permutation-importance payload.
type ScoresResult struct {
	Scores dist.Floats `json:"scores"`
}

// CandidateResult is one topology candidate's payload.
type CandidateResult struct {
	Error  dist.Float `json:"error"`
	Params int        `json:"params"`
}

func decodeConfig(spec dist.Spec, out any) error {
	if err := json.Unmarshal(spec.Config, out); err != nil {
		return fmt.Errorf("jobs: decoding %s config: %w", spec.Kind, err)
	}
	return nil
}

// Runners maps every job kind to its task implementation — what a worker
// process passes to dist.WorkerConfig.Runners.
func Runners() map[string]dist.Runner {
	return map[string]dist.Runner{
		KindCrossval:   runCrossval,
		KindCompare:    runCompare,
		KindSurface:    runSurface,
		KindImportance: runImportance,
		KindSelect:     runSelect,
	}
}

// NewWorker is dist.NewWorker with this package's runners pre-wired (a
// caller-supplied table still wins, so tests can add toy kinds).
func NewWorker(cfg dist.WorkerConfig) (*dist.Worker, error) {
	if cfg.Runners == nil {
		cfg.Runners = Runners()
	}
	return dist.NewWorker(cfg)
}

func runCrossval(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg CrossvalConfig
	if err := decodeConfig(spec, &cfg); err != nil {
		return nil, err
	}
	mc, err := ModelConfig(cfg.Hidden, cfg.Epochs, spec.Seed)
	if err != nil {
		return nil, err
	}
	split, err := sharedCache.split(ctx, env, spec, cfg.K)
	if err != nil {
		return nil, err
	}
	trial, err := split.Fold(mc, index)
	if err != nil {
		return nil, err
	}
	// Every field of the fold event derives from (spec, index): deterministic.
	trial.Emit(obs.TraceFromContext(ctx), index)
	return json.Marshal(TrialResult{Errors: dist.Floats(trial.Errors)})
}

func runCompare(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg CompareConfig
	if err := decodeConfig(spec, &cfg); err != nil {
		return nil, err
	}
	fams, err := CompareFamilies(cfg.Hidden, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	split, err := sharedCache.split(ctx, env, spec, cfg.K)
	if err != nil {
		return nil, err
	}
	mean, err := CompareCell(split, fams, cfg.K, spec.Seed, index)
	if err != nil {
		return nil, err
	}
	emitCompareCell(obs.TraceFromContext(ctx), fams, cfg.K, index, mean)
	return json.Marshal(CellResult{Mean: dist.Float(mean)})
}

func runSurface(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg SurfaceConfig
	if err := decodeConfig(spec, &cfg); err != nil {
		return nil, err
	}
	model, err := sharedCache.model(ctx, env, spec)
	if err != nil {
		return nil, err
	}
	row, err := probeSurfaceRow(model, cfg, index)
	if err != nil {
		return nil, err
	}
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("surface_row",
			obs.Int("row", index),
			obs.Float("x", cfg.XValues[index]),
			obs.Int("cols", len(row)))
	}
	return json.Marshal(RowResult{Z: dist.Floats(row)})
}

func runImportance(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg ImportanceConfig
	if err := decodeConfig(spec, &cfg); err != nil {
		return nil, err
	}
	model, ds, base, actual, err := sharedCache.baseline(ctx, env, spec)
	if err != nil {
		return nil, err
	}
	scores := scoreImportanceFeature(model, ds, base, actual, index, cfg.Repeats, spec.Seed)
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("importance_feature",
			obs.Int("feature", index),
			obs.String("name", ds.FeatureNames[index]),
			obs.Float("mean_score", stats.MeanSkipNaN(scores)))
	}
	return json.Marshal(ScoresResult{Scores: dist.Floats(scores)})
}

func runSelect(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg SelectConfig
	if err := decodeConfig(spec, &cfg); err != nil {
		return nil, err
	}
	if index < 0 || index >= len(cfg.Candidates) {
		return nil, fmt.Errorf("jobs: candidate %d out of range [0,%d)", index, len(cfg.Candidates))
	}
	ds, err := sharedCache.dataset(ctx, env, spec)
	if err != nil {
		return nil, err
	}
	base, err := ModelConfig("16", cfg.Epochs, spec.Seed)
	if err != nil {
		return nil, err
	}
	cand, err := core.ScoreTopology(ds, base, cfg.Candidates[index], cfg.K, spec.Seed)
	if err != nil {
		return nil, err
	}
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("select_candidate",
			obs.Int("candidate", index),
			obs.Float("error", cand.Error),
			obs.Int("params", cand.Params))
	}
	return json.Marshal(CandidateResult{Error: dist.Float(cand.Error), Params: cand.Params})
}
