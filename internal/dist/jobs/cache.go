package jobs

import (
	"context"
	"fmt"
	"os"
	"sync"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/workload"
)

// artifactCache memoizes the parsed form of artifacts per process, by
// content hash, and the kind a worker opened for its current job: every
// task of a job runs on one kind, so its shared state (a fold split, an
// importance baseline) is built once per job, not once per task. Content
// addressing makes entries immutable, so the cache never invalidates;
// consumers must Clone before mutating (the kinds already do).
type artifactCache struct {
	mu       sync.Mutex
	datasets map[string]*workload.Dataset
	models   map[string]*core.NNModel
	latest   *openJob // the kind of the latest job a worker ran here
}

// openJob is one job's kind, opened once.
type openJob struct {
	fingerprint string
	once        sync.Once
	kind        opened
	err         error
}

var sharedCache = &artifactCache{
	datasets: make(map[string]*workload.Dataset),
	models:   make(map[string]*core.NNModel),
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

// job returns spec's kind, opened on the first call for the job and
// shared by every later task of it (a worker serves one job at a time, so
// only the latest job's kind is kept). A failed open is not kept.
func (c *artifactCache) job(ctx context.Context, env dist.Env, spec dist.Spec) (opened, error) {
	fp := spec.Fingerprint()
	c.mu.Lock()
	j := c.latest
	if j == nil || j.fingerprint != fp {
		j = &openJob{fingerprint: fp}
		c.latest = j
	}
	c.mu.Unlock()
	j.once.Do(func() { j.kind, j.err = open(ctx, source{env: env, spec: spec}) })
	if j.err != nil {
		c.mu.Lock()
		if c.latest == j {
			c.latest = nil
		}
		c.mu.Unlock()
	}
	return j.kind, j.err
}
