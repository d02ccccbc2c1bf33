package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/httpx"
	"nnwc/internal/obs"
	"nnwc/internal/sensitivity"
	"nnwc/internal/surface"
	"nnwc/internal/workload"
)

// Options parameterizes the coordinator side of a distributed experiment.
// Zero values defer to dist.CoordinatorConfig defaults.
type Options struct {
	// Addr is the coordinator listen address (e.g. ":9000").
	Addr string
	// JobID names the run in the spec (informational; usually the obs run
	// ID). Excluded from the resume fingerprint.
	JobID string
	// LeaseSize, LeaseTTL: see dist.CoordinatorConfig.
	LeaseSize int
	LeaseTTL  time.Duration
	// StateFile journals completed tasks for resume; "" disables.
	StateFile string
	// ClusterTraceFile is where the coordinator writes the merged cluster
	// trace when the job completes; "" disables trace merging.
	ClusterTraceFile string
	// Timeouts harden the coordinator's HTTP listener.
	Timeouts httpx.Timeouts
	// Logf receives progress lines (nil is silent).
	Logf func(format string, args ...any)
	// OnStart, when set, is called with the bound address once the
	// coordinator is listening — the hook tests use to spawn workers.
	OnStart func(addr string)
}

// coordinate runs one job to completion: stamp the spec with the run ID
// and the marshaled kind config, build the coordinator, serve, wait, and
// hand back the index-ordered payloads plus per-job stats. paths maps
// each artifact hash to its local file.
func coordinate(ctx context.Context, opt Options, spec dist.Spec, cfg any, paths map[string]string) ([]json.RawMessage, dist.Stats, error) {
	var err error
	if spec.Config, err = json.Marshal(cfg); err != nil {
		return nil, dist.Stats{}, err
	}
	spec.JobID = opt.JobID
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Addr:             opt.Addr,
		Spec:             spec,
		ArtifactPaths:    paths,
		LeaseSize:        opt.LeaseSize,
		LeaseTTL:         opt.LeaseTTL,
		StateFile:        opt.StateFile,
		ClusterTraceFile: opt.ClusterTraceFile,
		Timeouts:         opt.Timeouts,
		Logf:             opt.Logf,
	})
	if err != nil {
		return nil, dist.Stats{}, err
	}
	if err := c.Start(); err != nil {
		return nil, dist.Stats{}, err
	}
	if opt.OnStart != nil {
		opt.OnStart(c.Addr())
	}
	payloads, err := c.Wait(ctx)
	return payloads, c.CoordStats(), err
}

func decodePayload(payloads []json.RawMessage, index int, out any) error {
	if err := json.Unmarshal(payloads[index], out); err != nil {
		return fmt.Errorf("jobs: decoding task %d payload: %w", index, err)
	}
	return nil
}

// CoordinateCrossval distributes one k-fold cross-validation: one task
// per fold, reduced with core.ReduceTrials in ascending fold order — the
// same result CrossValidateWorkers computes locally, to the bit.
func CoordinateCrossval(ctx context.Context, opt Options, dataPath string, k int, hidden string, epochs int, seed uint64) (*core.CVResult, dist.Stats, error) {
	ds, sha, err := loadHashedDataset(dataPath)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	// Fail on malformed -hidden before any worker does.
	if _, err := ModelConfig(hidden, epochs, seed); err != nil {
		return nil, dist.Stats{}, err
	}
	spec := dist.Spec{Kind: KindCrossval, Seed: seed, NumTasks: k, Artifacts: map[string]string{RoleDataset: sha}}
	cfg := CrossvalConfig{K: k, Hidden: hidden, Epochs: epochs}
	payloads, stats, err := coordinate(ctx, opt, spec, cfg, map[string]string{sha: dataPath})
	if err != nil {
		return nil, stats, err
	}
	trials := make([]core.Trial, k)
	for f := range trials {
		var tr TrialResult
		if err := decodePayload(payloads, f, &tr); err != nil {
			return nil, stats, err
		}
		trials[f] = core.Trial{Errors: tr.Errors}
	}
	targetNames := append([]string(nil), ds.TargetNames...)
	return core.ReduceTrials(targetNames, trials), stats, nil
}

// FamilyMean is one model family's reduced comparison score.
type FamilyMean struct {
	Name string
	// Mean is the family's HMRE averaged over folds in ascending order —
	// the same summation the local compare loop performs.
	Mean float64
}

// CoordinateCompare distributes the §4 model-family comparison: one task
// per (family, fold) cell, reduced per family in ascending fold order.
func CoordinateCompare(ctx context.Context, opt Options, dataPath string, k int, hidden string, epochs int, seed uint64) ([]FamilyMean, dist.Stats, error) {
	_, sha, err := loadHashedDataset(dataPath)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	fams, err := CompareFamilies(hidden, epochs)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	spec := dist.Spec{Kind: KindCompare, Seed: seed, NumTasks: len(fams) * k, Artifacts: map[string]string{RoleDataset: sha}}
	cfg := CompareConfig{K: k, Hidden: hidden, Epochs: epochs}
	payloads, stats, err := coordinate(ctx, opt, spec, cfg, map[string]string{sha: dataPath})
	if err != nil {
		return nil, stats, err
	}
	cells := make([]float64, len(fams)*k)
	for i := range cells {
		var cell CellResult
		if err := decodePayload(payloads, i, &cell); err != nil {
			return nil, stats, err
		}
		cells[i] = float64(cell.Mean)
	}
	return familyMeans(fams, k, cells), stats, nil
}

// CoordinateSurface distributes a §5 response-surface sweep: one task per
// grid row (XValue), assembled into the Grid in row order.
func CoordinateSurface(ctx context.Context, opt Options, modelPath string, sl surface.Slice) (*surface.Grid, dist.Stats, error) {
	model, sha, err := loadHashedModel(modelPath)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	if err := sl.Validate(model.InputDim(), model.OutputDim()); err != nil {
		return nil, dist.Stats{}, err
	}
	spec := dist.Spec{Kind: KindSurface, NumTasks: len(sl.XValues), Artifacts: map[string]string{RoleModel: sha}}
	cfg := SurfaceConfig{
		Fixed:   dist.Floats(sl.Fixed),
		XIndex:  sl.XIndex,
		YIndex:  sl.YIndex,
		XValues: dist.Floats(sl.XValues),
		YValues: dist.Floats(sl.YValues),
		Output:  sl.Output,
	}
	payloads, stats, err := coordinate(ctx, opt, spec, cfg, map[string]string{sha: modelPath})
	if err != nil {
		return nil, stats, err
	}
	z := make([][]float64, len(sl.XValues))
	for i := range z {
		var row RowResult
		if err := decodePayload(payloads, i, &row); err != nil {
			return nil, stats, err
		}
		z[i] = row.Z
	}
	return &surface.Grid{Slice: sl, Z: z}, stats, nil
}

// CoordinateImportance distributes permutation feature importance: one
// task per feature, each scoring against the worker-side shared baseline.
func CoordinateImportance(ctx context.Context, opt Options, modelPath, dataPath string, repeats int, seed uint64) (*sensitivity.Importance, dist.Stats, error) {
	_, modelSHA, err := loadHashedModel(modelPath)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	ds, dataSHA, err := loadHashedDataset(dataPath)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	spec := dist.Spec{Kind: KindImportance, Seed: seed, NumTasks: ds.NumFeatures(), Artifacts: map[string]string{RoleModel: modelSHA, RoleDataset: dataSHA}}
	cfg := ImportanceConfig{Repeats: repeats}
	payloads, stats, err := coordinate(ctx, opt, spec, cfg, map[string]string{modelSHA: modelPath, dataSHA: dataPath})
	if err != nil {
		return nil, stats, err
	}
	im := &sensitivity.Importance{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		TargetNames:  append([]string(nil), ds.TargetNames...),
		Scores:       make([][]float64, ds.NumFeatures()),
	}
	for i := range im.Scores {
		var sc ScoresResult
		if err := decodePayload(payloads, i, &sc); err != nil {
			return nil, stats, err
		}
		im.Scores[i] = sc.Scores
	}
	return im, stats, nil
}

// CoordinateSelect distributes topology selection: one task per candidate
// hidden layout, reduced with core.PickBest over the declared order.
func CoordinateSelect(ctx context.Context, opt Options, dataPath string, candidates [][]int, k, epochs int, seed uint64) (*core.SelectionResult, dist.Stats, error) {
	if len(candidates) == 0 {
		return nil, dist.Stats{}, fmt.Errorf("jobs: no candidate topologies")
	}
	_, sha, err := loadHashedDataset(dataPath)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	spec := dist.Spec{Kind: KindSelect, Seed: seed, NumTasks: len(candidates), Artifacts: map[string]string{RoleDataset: sha}}
	cfg := SelectConfig{K: k, Epochs: epochs, Candidates: candidates}
	payloads, stats, err := coordinate(ctx, opt, spec, cfg, map[string]string{sha: dataPath})
	if err != nil {
		return nil, stats, err
	}
	res := &core.SelectionResult{Candidates: make([]core.NodeCountResult, len(candidates))}
	for i, hidden := range candidates {
		var cand CandidateResult
		if err := decodePayload(payloads, i, &cand); err != nil {
			return nil, stats, err
		}
		res.Candidates[i] = core.NodeCountResult{
			Hidden: append([]int(nil), hidden...),
			Error:  float64(cand.Error),
			Params: cand.Params,
		}
	}
	res.Best = core.PickBest(res.Candidates)
	return res, stats, nil
}

// loadHashedDataset reads the coordinator-local dataset once, fingerprints
// those bytes — the content address workers fetch it by — and takes the
// parse of the same bytes from the artifact cache, so the spec's hash
// always names the data the coordinator reduces with.
func loadHashedDataset(path string) (*workload.Dataset, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	sha := obs.HashBytes(raw)
	ds, err := memo(sharedCache, sharedCache.datasets, sha, func() (*workload.Dataset, error) {
		return workload.ReadCSV(bytes.NewReader(raw))
	})
	if err != nil {
		return nil, "", fmt.Errorf("jobs: parsing dataset %s: %w", path, err)
	}
	return ds, sha, nil
}

// loadHashedModel is loadHashedDataset for a persisted model.
func loadHashedModel(path string) (*core.NNModel, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	model, err := core.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	return model, obs.HashBytes(raw), nil
}
