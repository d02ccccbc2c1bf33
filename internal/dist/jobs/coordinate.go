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

// Job is one experiment in wire terms: the Spec a worker needs (kind,
// seed, config, artifact hashes) and the local files the artifacts are
// read from. O is the kind's reduced result.
type Job[O any] struct {
	spec  dist.Spec
	paths map[string]string // artifact hash → local file
}

// ArtifactPath resolves the job's artifacts to their local files, so a
// local run opens its kind through the same cache a worker does.
func (j Job[O]) ArtifactPath(_ context.Context, sha string) (string, error) {
	path, ok := j.paths[sha]
	if !ok {
		return "", fmt.Errorf("jobs: no local file for artifact %s", sha)
	}
	return path, nil
}

// artifact is one local file a job reads, by role.
type artifact struct{ role, path string }

// newJob marshals cfg as the spec's config and fingerprints each artifact.
func newJob[O any](kind string, seed uint64, cfg any, arts ...artifact) (Job[O], error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return Job[O]{}, err
	}
	j := Job[O]{
		spec:  dist.Spec{Kind: kind, Seed: seed, Config: raw, Artifacts: make(map[string]string, len(arts))},
		paths: make(map[string]string, len(arts)),
	}
	for _, a := range arts {
		sha, err := loadHashed(a.role, a.path)
		if err != nil {
			return Job[O]{}, err
		}
		j.spec.Artifacts[a.role] = sha
		j.paths[sha] = a.path
	}
	return j, nil
}

// CrossvalJob is a k-fold cross-validation of the dataset at data: one
// task per fold. A local run's trials carry their fold models; a
// distributed run's carry errors only.
func CrossvalJob(data string, cfg CrossvalConfig, seed uint64) (Job[*core.CVResult], error) {
	return newJob[*core.CVResult](KindCrossval, seed, cfg, artifact{RoleDataset, data})
}

// CompareJob is the §4 model-family comparison on the dataset at data:
// one task per (family, fold) cell.
func CompareJob(data string, cfg CompareConfig, seed uint64) (Job[[]core.FamilyMean], error) {
	return newJob[[]core.FamilyMean](KindCompare, seed, cfg, artifact{RoleDataset, data})
}

// SurfaceJob is a §5 response-surface sweep of the model at model over
// sl: one task per grid row.
func SurfaceJob(model string, sl surface.Slice) (Job[*surface.Grid], error) {
	cfg := SurfaceConfig{
		Fixed:   dist.Floats(sl.Fixed),
		XIndex:  sl.XIndex,
		YIndex:  sl.YIndex,
		XValues: dist.Floats(sl.XValues),
		YValues: dist.Floats(sl.YValues),
		Output:  sl.Output,
	}
	return newJob[*surface.Grid](KindSurface, 0, cfg, artifact{RoleModel, model})
}

// ImportanceJob is permutation feature importance of the model at model
// on the dataset at data: one task per feature.
func ImportanceJob(model, data string, cfg ImportanceConfig, seed uint64) (Job[*sensitivity.Importance], error) {
	return newJob[*sensitivity.Importance](KindImportance, seed, cfg, artifact{RoleModel, model}, artifact{RoleDataset, data})
}

// SelectJob is topology selection on the dataset at data: one task per
// candidate hidden layout.
func SelectJob(data string, cfg SelectConfig, seed uint64) (Job[*core.SelectionResult], error) {
	return newJob[*core.SelectionResult](KindSelect, seed, cfg, artifact{RoleDataset, data})
}

// Executor runs a job's tasks: Local in this process, or Options, which
// coordinates worker processes over the lease protocol.
type Executor interface{ executor() }

// Local runs a job in this process on the scheduler's default worker count
// (sched.SetWorkers).
type Local struct{}

func (Local) executor() {}

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

func (Options) executor() {}

// Execute runs job j on ex and returns its reduced result. Both executors
// open the job's kind from its wire form and reduce with its Reduce, and
// workers run its Run, so the result is bit-identical either way. ctx
// carries the run's trace: the kind's start and summary events go there,
// and a Local run's task events too (a distributed run's go to the
// cluster trace). The stats are zero for a Local run.
func Execute[O any](ctx context.Context, ex Executor, j Job[O]) (O, dist.Stats, error) {
	var (
		out   any
		stats dist.Stats
		err   error
	)
	switch ex := ex.(type) {
	case Local:
		var k opened
		if k, err = open(ctx, source{env: j, spec: j.spec, fits: obs.TraceFromContext(ctx)}); err == nil {
			out, err = k.local(ctx)
		}
	case Options:
		out, stats, err = coordinate(ctx, ex, j)
	default:
		err = fmt.Errorf("jobs: unknown executor %T", ex)
	}
	if err != nil {
		var zero O
		return zero, stats, err
	}
	return out.(O), stats, nil
}

// coordinate runs one job to completion on a coordinator: open the kind
// (which checks the config before any worker sees it), serve the spec and
// artifacts, wait for every payload, and reduce.
func coordinate[O any](ctx context.Context, opt Options, j Job[O]) (any, dist.Stats, error) {
	spec := j.spec
	k, err := open(ctx, source{env: j, spec: spec})
	if err != nil {
		return nil, dist.Stats{}, err
	}
	spec.NumTasks = k.tasks()
	spec.JobID = opt.JobID
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Addr:             opt.Addr,
		Spec:             spec,
		ArtifactPaths:    j.paths,
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
	k.start(ctx)
	if opt.OnStart != nil {
		opt.OnStart(c.Addr())
	}
	payloads, err := c.Wait(ctx)
	if err != nil {
		return nil, c.CoordStats(), err
	}
	out, err := k.reduce(ctx, payloads)
	return out, c.CoordStats(), err
}

// CoordinateCrossval distributes one k-fold cross-validation: CrossvalJob
// executed on opt.
func CoordinateCrossval(ctx context.Context, opt Options, dataPath string, k int, hidden string, epochs int, seed uint64) (*core.CVResult, dist.Stats, error) {
	j, err := CrossvalJob(dataPath, CrossvalConfig{K: k, Hidden: hidden, Epochs: epochs}, seed)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	return Execute(ctx, opt, j)
}

// loadHashed reads a local artifact once, fingerprints those bytes — the
// content address workers fetch it by — and parses the same bytes into
// the artifact cache, so the hash always names what the kind is opened
// on.
func loadHashed(role, path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sha := obs.HashBytes(raw)
	if role == RoleModel {
		_, err = memo(sharedCache, sharedCache.models, sha, func() (*core.NNModel, error) {
			return core.LoadModel(bytes.NewReader(raw))
		})
	} else {
		_, err = memo(sharedCache, sharedCache.datasets, sha, func() (*workload.Dataset, error) {
			return workload.ReadCSV(bytes.NewReader(raw))
		})
	}
	if err != nil {
		return "", fmt.Errorf("jobs: parsing %s %s: %w", role, path, err)
	}
	return sha, nil
}
