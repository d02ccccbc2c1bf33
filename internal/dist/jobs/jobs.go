// Package jobs is the wire side of the experiment kinds: cross-validation
// folds, model-family compare cells, surface-grid rows,
// permutation-importance features and topology-selection candidates. Each
// kind is defined once, as a sched.Kind in core, surface or sensitivity;
// this package holds only
//
//   - the codecs: a primitive-only Spec.Config per kind, from which open
//     rebuilds the kind value exactly as the CLI's flags would, and a
//     payload per task result (dist.Float(s), so NaN HMREs and exact bits
//     survive JSON);
//   - the artifact cache, which parses each dataset and model once per
//     process and opens each job's kind once per worker;
//   - the executors: Local runs a job in process through sched.Execute,
//     and Options coordinates worker processes over the lease protocol,
//     whose generic runner (Runners) serves every kind.
//
// Both executors open the same kind and reduce with its Reduce, and a
// worker runs the same Run, so a job's result is bit-identical wherever
// its tasks run.
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
	"nnwc/internal/obs"
	"nnwc/internal/sched"
	"nnwc/internal/sensitivity"
	"nnwc/internal/surface"
	"nnwc/internal/train"
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
// flags — the single definition both cmd/nnwc and the kind codecs use, so
// a shipped (hidden, epochs, seed) triple reconstructs the exact config
// the local path would have built.
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

// Per-kind wire configs (Spec.Config payloads). Primitives only: open
// re-derives core.Config and surface.Slice from these the same way the
// CLI does from its flags.

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

// Per-kind task payloads.

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

// source is what opening a kind may read: the spec, and its artifacts
// through the shared cache.
type source struct {
	env  dist.Env
	spec dist.Spec
	// fits, when set, traces the kind's model fits into each task's trace:
	// the run's trace when the kind runs in this process. A worker ships
	// only the kinds' per-task events.
	fits *obs.Trace
}

func (s source) config(out any) error {
	if err := json.Unmarshal(s.spec.Config, out); err != nil {
		return fmt.Errorf("jobs: decoding %s config: %w", s.spec.Kind, err)
	}
	return nil
}

// open rebuilds a spec's kind value: the one place each kind's wire form
// meets its definition.
func open(ctx context.Context, src source) (opened, error) {
	seed := src.spec.Seed
	switch src.spec.Kind {
	case KindCrossval:
		var c CrossvalConfig
		if err := src.config(&c); err != nil {
			return nil, err
		}
		mc, err := ModelConfig(c.Hidden, c.Epochs, seed)
		if err != nil {
			return nil, err
		}
		mc.Trace = src.fits
		ds, err := sharedCache.dataset(ctx, src.env, src.spec)
		if err != nil {
			return nil, err
		}
		k, err := core.CrossvalKind(ds, mc, c.K, seed)
		return codec(k, err,
			func(t core.Trial) TrialResult { return TrialResult{Errors: t.Errors} },
			func(p TrialResult) core.Trial { return core.Trial{Errors: p.Errors} })
	case KindCompare:
		var c CompareConfig
		if err := src.config(&c); err != nil {
			return nil, err
		}
		mc, err := ModelConfig(c.Hidden, c.Epochs, 0)
		if err != nil {
			return nil, err
		}
		ds, err := sharedCache.dataset(ctx, src.env, src.spec)
		if err != nil {
			return nil, err
		}
		k, err := core.CompareKind(ds, core.CompareFamilies(mc), c.K, seed)
		return codec(k, err,
			func(m float64) CellResult { return CellResult{Mean: dist.Float(m)} },
			func(p CellResult) float64 { return float64(p.Mean) })
	case KindSurface:
		var c SurfaceConfig
		if err := src.config(&c); err != nil {
			return nil, err
		}
		model, err := sharedCache.model(ctx, src.env, src.spec)
		if err != nil {
			return nil, err
		}
		sl := surface.Slice{Fixed: c.Fixed, XIndex: c.XIndex, YIndex: c.YIndex, XValues: c.XValues, YValues: c.YValues, Output: c.Output}
		k, err := surface.GridKind(model, sl, model.InputDim(), model.OutputDim())
		return codec(k, err,
			func(z []float64) RowResult { return RowResult{Z: z} },
			func(p RowResult) []float64 { return p.Z })
	case KindImportance:
		var c ImportanceConfig
		if err := src.config(&c); err != nil {
			return nil, err
		}
		model, err := sharedCache.model(ctx, src.env, src.spec)
		if err != nil {
			return nil, err
		}
		ds, err := sharedCache.dataset(ctx, src.env, src.spec)
		if err != nil {
			return nil, err
		}
		k, err := sensitivity.ImportanceKind(model, ds, sensitivity.Options{Repeats: c.Repeats, Seed: seed})
		return codec(k, err,
			func(s []float64) ScoresResult { return ScoresResult{Scores: s} },
			func(p ScoresResult) []float64 { return p.Scores })
	case KindSelect:
		var c SelectConfig
		if err := src.config(&c); err != nil {
			return nil, err
		}
		base, err := ModelConfig("16", c.Epochs, seed)
		if err != nil {
			return nil, err
		}
		base.Trace = src.fits
		ds, err := sharedCache.dataset(ctx, src.env, src.spec)
		if err != nil {
			return nil, err
		}
		k, err := core.SelectKind(ds, base, c.Candidates, c.K, seed)
		return codec(k, err,
			func(r core.NodeCountResult) CandidateResult {
				return CandidateResult{Error: dist.Float(r.Error), Params: r.Params}
			},
			func(p CandidateResult) core.NodeCountResult {
				return core.NodeCountResult{Error: float64(p.Error), Params: p.Params}
			})
	}
	return nil, fmt.Errorf("jobs: unknown job kind %q", src.spec.Kind)
}

// opened is a kind rebuilt from its spec, seen through its payload codec,
// so the executors and the worker runner handle every kind alike.
type opened interface {
	tasks() int
	start(ctx context.Context)
	local(ctx context.Context) (any, error)
	run(ctx context.Context, i int) (json.RawMessage, error)
	reduce(ctx context.Context, payloads []json.RawMessage) (any, error)
}

// wire pairs a kind with the codec between its task results R and their
// payloads P.
type wire[R, P, O any] struct {
	kind     sched.Kind[R, O]
	toWire   func(R) P
	fromWire func(P) R
}

func codec[R, P, O any](k sched.Kind[R, O], err error, toWire func(R) P, fromWire func(P) R) (opened, error) {
	if err != nil {
		return nil, err
	}
	return wire[R, P, O]{kind: k, toWire: toWire, fromWire: fromWire}, nil
}

func (w wire[R, P, O]) tasks() int                { return w.kind.Tasks() }
func (w wire[R, P, O]) start(ctx context.Context) { sched.Start(ctx, w.kind) }

func (w wire[R, P, O]) local(ctx context.Context) (any, error) {
	return sched.Execute(ctx, 0, w.kind)
}

func (w wire[R, P, O]) run(ctx context.Context, i int) (json.RawMessage, error) {
	r, err := w.kind.Run(ctx, i)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w.toWire(r))
}

func (w wire[R, P, O]) reduce(ctx context.Context, payloads []json.RawMessage) (any, error) {
	results := make([]R, len(payloads))
	for i, raw := range payloads {
		var p P
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("jobs: decoding task %d payload: %w", i, err)
		}
		results[i] = w.fromWire(p)
	}
	return w.kind.Reduce(ctx, results)
}

// Runners maps every job kind to the generic task runner — what a worker
// process passes to dist.WorkerConfig.Runners.
func Runners() map[string]dist.Runner {
	return map[string]dist.Runner{
		KindCrossval:   run,
		KindCompare:    run,
		KindSurface:    run,
		KindImportance: run,
		KindSelect:     run,
	}
}

// run computes one task of any kind on a worker: the job's kind is opened
// once per worker process, and every task of the job runs on it.
func run(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	k, err := sharedCache.job(ctx, env, spec)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= k.tasks() {
		return nil, fmt.Errorf("jobs: %s task %d out of range [0,%d)", spec.Kind, index, k.tasks())
	}
	return k.run(ctx, index)
}

// NewWorker is dist.NewWorker with this package's runners pre-wired (a
// caller-supplied table still wins, so tests can add toy kinds).
func NewWorker(cfg dist.WorkerConfig) (*dist.Worker, error) {
	if cfg.Runners == nil {
		cfg.Runners = Runners()
	}
	return dist.NewWorker(cfg)
}
