package jobs

import (
	"context"
	"fmt"
	"os"
	"sync"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/sensitivity"
	"nnwc/internal/surface"
	"nnwc/internal/workload"
)

// artifactCache memoizes the parsed form of fetched artifacts per process:
// every task in a lease (and every lease of a job) shares one dataset and
// one model. Content addressing makes entries immutable, so the cache
// never invalidates; consumers must Clone before mutating (the fold and
// cell units already do).
type artifactCache struct {
	mu        sync.Mutex
	datasets  map[string]*workload.Dataset
	models    map[string]*core.NNModel
	baselines map[string]*importanceBaseline
	splits    map[string]cvSplit // the latest crossval split per dataset hash
}

// cvSplit is one crossval job's fold split, keyed by its (seed, k).
type cvSplit struct {
	seed  uint64
	k     int
	split *core.CVSplit
}

// importanceBaseline caches sensitivity.Baseline per (model, dataset)
// pair — every feature task rescoring against it recomputes nothing.
type importanceBaseline struct {
	base   []float64
	actual [][]float64
}

var sharedCache = &artifactCache{
	datasets:  make(map[string]*workload.Dataset),
	models:    make(map[string]*core.NNModel),
	baselines: make(map[string]*importanceBaseline),
	splits:    make(map[string]cvSplit),
}

func artifactSHA(spec dist.Spec, role string) (string, error) {
	sha, ok := spec.Artifacts[role]
	if !ok || sha == "" {
		return "", fmt.Errorf("jobs: %s job ships no %q artifact", spec.Kind, role)
	}
	return sha, nil
}

// memo returns m[key], building it on a miss. mu guards only the map: a
// slow build (fetch and parse) cannot serialize unrelated tasks, and the
// publish re-checks the map so every caller shares the first-stored value.
func memo[T any](c *artifactCache, m map[string]T, key string, build func() (T, error)) (T, error) {
	c.mu.Lock()
	v, ok := m[key]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := m[key]; ok {
		return existing, nil
	}
	m[key] = v
	return v, nil
}

// dataset resolves and parses the job's dataset artifact, memoized by
// content hash. The returned dataset is shared — clone before mutating.
func (c *artifactCache) dataset(ctx context.Context, env dist.Env, spec dist.Spec) (*workload.Dataset, error) {
	sha, err := artifactSHA(spec, RoleDataset)
	if err != nil {
		return nil, err
	}
	return memo(c, c.datasets, sha, func() (*workload.Dataset, error) {
		path, err := env.ArtifactPath(ctx, sha)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds, err := workload.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("jobs: parsing dataset %s: %w", sha, err)
		}
		return ds, nil
	})
}

// split returns the crossval job's shuffled dataset and fold split, built
// once per (dataset, seed, k) instead of once per fold. Only the latest
// split of each dataset is kept, so a worker serving job after job holds
// one split per dataset.
func (c *artifactCache) split(ctx context.Context, env dist.Env, spec dist.Spec, k int) (*core.CVSplit, error) {
	ds, err := c.dataset(ctx, env, spec)
	if err != nil {
		return nil, err
	}
	sha := spec.Artifacts[RoleDataset]
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.splits[sha]; ok && s.seed == spec.Seed && s.k == k {
		return s.split, nil
	}
	split, err := core.NewCVSplit(ds, k, spec.Seed)
	if err != nil {
		return nil, err
	}
	c.splits[sha] = cvSplit{seed: spec.Seed, k: k, split: split}
	return split, nil
}

// model resolves and parses the job's model artifact, memoized by content
// hash. Models are read-only through Predict, so sharing is safe.
func (c *artifactCache) model(ctx context.Context, env dist.Env, spec dist.Spec) (*core.NNModel, error) {
	sha, err := artifactSHA(spec, RoleModel)
	if err != nil {
		return nil, err
	}
	return memo(c, c.models, sha, func() (*core.NNModel, error) {
		path, err := env.ArtifactPath(ctx, sha)
		if err != nil {
			return nil, err
		}
		m, err := core.LoadModelFile(path)
		if err != nil {
			return nil, fmt.Errorf("jobs: loading model %s: %w", sha, err)
		}
		return m, nil
	})
}

// baseline resolves the importance job's model and dataset and computes
// (or recalls) the unpermuted-RMSE baseline every feature task scores
// against. Keyed by the (model, dataset) hash pair, so a job's N feature
// tasks run one baseline pass, not N.
func (c *artifactCache) baseline(ctx context.Context, env dist.Env, spec dist.Spec) (*core.NNModel, *workload.Dataset, []float64, [][]float64, error) {
	model, err := c.model(ctx, env, spec)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ds, err := c.dataset(ctx, env, spec)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	key := spec.Artifacts[RoleModel] + "/" + spec.Artifacts[RoleDataset]
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.baselines[key]; ok {
		return model, ds, b.base, b.actual, nil
	}
	base, actual, err := sensitivity.Baseline(model, ds)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	c.baselines[key] = &importanceBaseline{base: base, actual: actual}
	return model, ds, base, actual, nil
}

// probeSurfaceRow reconstructs the surface slice from the wire config and
// evaluates grid row `index` — the same row EvaluateTraced would fill.
func probeSurfaceRow(model *core.NNModel, cfg SurfaceConfig, index int) ([]float64, error) {
	sl := surface.Slice{
		Fixed:   cfg.Fixed,
		XIndex:  cfg.XIndex,
		YIndex:  cfg.YIndex,
		XValues: cfg.XValues,
		YValues: cfg.YValues,
		Output:  cfg.Output,
	}
	if err := sl.Validate(model.InputDim(), model.OutputDim()); err != nil {
		return nil, err
	}
	return surface.ProbeRow(model, sl, model.InputDim(), index)
}

// scoreImportanceFeature scores one feature with the same options the
// local PermutationImportance loop derives from the CLI flags.
func scoreImportanceFeature(model *core.NNModel, ds *workload.Dataset, base []float64, actual [][]float64, index, repeats int, seed uint64) []float64 {
	return sensitivity.ScoreFeature(model, ds, base, actual, index, sensitivity.Options{Repeats: repeats, Seed: seed})
}
