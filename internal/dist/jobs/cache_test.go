package jobs

// Regression tests for the artifact cache's locking contract: mu guards
// only the maps, fetch and parse run unlocked, and the publish re-checks
// the map so racing parsers discard their copy. Before the fix, the
// mutex was held across the fetch and parse, so one slow artifact
// resolution serialized every unrelated task in the process.

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// stubEnv resolves every artifact to one local file, standing in for the
// worker's fetch-over-HTTP path.
type stubEnv struct{ path string }

func (e stubEnv) ArtifactPath(ctx context.Context, sha string) (string, error) {
	return e.path, nil
}

func newTestCache() *artifactCache {
	return &artifactCache{
		datasets: make(map[string]*workload.Dataset),
		models:   make(map[string]*core.NNModel),
	}
}

// TestArtifactCacheConcurrentDataset pins that concurrent callers
// neither race nor get private copies: all eight must share the one
// first-published parse of the dataset.
func TestArtifactCacheConcurrentDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.csv")
	csv := "rate,threads,y:throughput\n480,8,120\n560,16,130\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := newTestCache()
	spec := dist.Spec{Kind: "toy", Artifacts: map[string]string{RoleDataset: "sha-dataset"}}

	const callers = 8
	got := make([]*workload.Dataset, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = cache.dataset(context.Background(), stubEnv{path: path}, spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("caller %d holds a private dataset copy; the cache must share one parse", i)
		}
	}
	if n := len(got[0].Samples); n != 2 {
		t.Fatalf("shared dataset has %d samples, want 2", n)
	}
}

// TestArtifactCacheConcurrentModel is the same pin for the model map.
func TestArtifactCacheConcurrentModel(t *testing.T) {
	ds := workload.NewDataset([]string{"rate", "threads"}, []string{"throughput"})
	for i := 0; i < 8; i++ {
		a, b := float64(i%4), float64(i/4)
		ds.MustAppend(workload.Sample{X: []float64{a, b}, Y: []float64{10 + a - b}})
	}
	tc := train.DefaultConfig()
	tc.MaxEpochs = 20
	model, err := core.Fit(ds, core.Config{Hidden: []int{3}, Train: &tc, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	cache := newTestCache()
	spec := dist.Spec{Kind: "toy", Artifacts: map[string]string{RoleModel: "sha-model"}}

	const callers = 8
	got := make([]*core.NNModel, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = cache.model(context.Background(), stubEnv{path: path}, spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("caller %d holds a private model copy; the cache must share one load", i)
		}
	}
}

// TestCrossvalRunnerSplitCache pins the worker's per-job kind: every
// fold's payload equals core.CrossValidateFold's errors bit for bit, the
// folds of one job run on one opened kind (so one split, built once), and
// the next job on the same dataset, even one with the seed of an earlier
// job, opens its own, so the cache keeps one job's kind. Folds run
// concurrently, as a worker's parallel leases do.
func TestCrossvalRunnerSplitCache(t *testing.T) {
	path := writeParityCSV(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	const k, sha = 4, "sha-split-cache"
	env := stubEnv{path: path}
	kindOf := func(j *openJob) any {
		return j.kind.(wire[core.Trial, TrialResult, *core.CVResult]).kind
	}
	var prev *openJob
	for job, seed := range []uint64{7, 11, 7} {
		cfg, err := json.Marshal(CrossvalConfig{K: k, Hidden: "6", Epochs: 60})
		if err != nil {
			t.Fatal(err)
		}
		spec := dist.Spec{Kind: KindCrossval, Seed: seed, NumTasks: k, Config: cfg, Artifacts: map[string]string{RoleDataset: sha}}
		mc, err := ModelConfig("6", 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([]json.RawMessage, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for fold := 0; fold < k; fold++ {
			wg.Add(1)
			go func(fold int) {
				defer wg.Done()
				payloads[fold], errs[fold] = run(context.Background(), env, spec, fold)
			}(fold)
		}
		wg.Wait()
		for fold := 0; fold < k; fold++ {
			if errs[fold] != nil {
				t.Fatalf("job %d fold %d: %v", job, fold, errs[fold])
			}
			var got TrialResult
			if err := json.Unmarshal(payloads[fold], &got); err != nil {
				t.Fatal(err)
			}
			want, err := core.CrossValidateFold(ds, mc, k, seed, fold)
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range want.Errors {
				if math.Float64bits(got.Errors[j]) != math.Float64bits(w) {
					t.Fatalf("job %d (seed %d) fold %d indicator %d: runner %.17g, CrossValidateFold %.17g", job, seed, fold, j, got.Errors[j], w)
				}
			}
		}
		// The cache holds this job's kind, and the previous job's is gone.
		sharedCache.mu.Lock()
		entry := sharedCache.latest
		sharedCache.mu.Unlock()
		if entry == nil || entry.fingerprint != spec.Fingerprint() {
			t.Fatalf("job %d: the cached kind is not this job's", job)
		}
		if entry == prev || (prev != nil && kindOf(entry) == kindOf(prev)) {
			t.Fatalf("job %d (seed %d) reused the previous job's kind", job, seed)
		}
		again, err := sharedCache.job(context.Background(), env, spec)
		if err != nil {
			t.Fatal(err)
		}
		if again.(wire[core.Trial, TrialResult, *core.CVResult]).kind != kindOf(entry) {
			t.Fatalf("job %d: a further fold of the same job reopened the kind", job)
		}
		prev = entry
	}
}
