package registry

import (
	"path/filepath"
	"strings"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/obs"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// trainModel fits a tiny 2→2 model with the given hidden widths and seed
// and persists it under dir, returning the artifact path.
func trainModel(t *testing.T, dir, name string, hidden []int, seed uint64) string {
	t.Helper()
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u", "v"})
	for i := 0; i < 40; i++ {
		a, b := float64(i%8)-4, float64(i/8)-2
		ds.MustAppend(workload.Sample{X: []float64{a, b}, Y: []float64{10 + a*a - b, 5 + a + 2*b}})
	}
	tc := train.DefaultConfig()
	tc.MaxEpochs = 60
	m, err := core.Fit(ds, core.Config{Hidden: hidden, Train: &tc, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegisterAssignsVersionsAndDedupesBySHA(t *testing.T) {
	dir := t.TempDir()
	pathA := trainModel(t, dir, "a.json", []int{4}, 1)
	pathB := trainModel(t, dir, "b.json", []int{4}, 2)

	r := New(8)
	i1, err := r.Register("web", pathA)
	if err != nil {
		t.Fatal(err)
	}
	if i1.Version != 1 || i1.Tenant != "web" {
		t.Fatalf("first registration = %s, want web@v1", i1.Ref())
	}
	wantSHA, err := obs.HashFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if i1.SHA256 != wantSHA {
		t.Fatalf("sha %q, want the obs.HashFile fingerprint %q", i1.SHA256, wantSHA)
	}
	if i1.Shape != "2-4-2" {
		t.Fatalf("shape %q, want 2-4-2", i1.Shape)
	}

	i2, err := r.Register("web", pathB)
	if err != nil {
		t.Fatal(err)
	}
	if i2.Version != 2 {
		t.Fatalf("second artifact got version %d, want 2", i2.Version)
	}

	// Same bytes again: idempotent, returns the existing version.
	dup, err := r.Register("web", pathA)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Version != 1 || dup.SHA256 != i1.SHA256 {
		t.Fatalf("re-registering identical bytes gave %s, want web@v1", dup.Ref())
	}
	if got := len(r.Artifacts()); got != 2 {
		t.Fatalf("registry holds %d artifacts, want 2", got)
	}

	// A second tenant gets its own version chain.
	i3, err := r.Register("db", pathA)
	if err != nil {
		t.Fatal(err)
	}
	if i3.Version != 1 {
		t.Fatalf("db's first version = %d, want 1", i3.Version)
	}
	if got := r.Tenants(); len(got) != 2 || got[0] != "db" || got[1] != "web" {
		t.Fatalf("tenants %v, want [db web]", got)
	}
}

func TestInstanceLRUEvictionAndRehydration(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		trainModel(t, dir, "m1.json", []int{3}, 1),
		trainModel(t, dir, "m2.json", []int{3}, 2),
		trainModel(t, dir, "m3.json", []int{3}, 3),
	}
	r := New(2)
	registered := make([]*Instance, len(paths))
	for i, p := range paths {
		inst, err := r.Register("web", p)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		registered[i] = inst
	}
	if got := r.WarmCount(); got != 2 {
		t.Fatalf("warm count %d, want capacity 2", got)
	}
	instance := func(version int) *Instance {
		t.Helper()
		inst, err := r.Instance("web", version)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Version != version {
			t.Fatalf("asked for v%d, got v%d", version, inst.Version)
		}
		return inst
	}

	// A warm hit returns the loaded instance itself.
	if instance(3) != registered[2] || instance(2) != registered[1] {
		t.Fatal("warm hit did not return the registered instance")
	}
	// v1 was evicted (LRU); asking for it rehydrates a fresh instance,
	// which later calls hit warm.
	v1 := instance(1)
	if v1 == registered[0] {
		t.Fatal("evicted v1 returned its old instance")
	}
	if instance(1) != v1 {
		t.Fatal("warm hit on rehydrated v1 reloaded it")
	}
	// Rehydrating v1 evicted v3, the least recently used.
	if instance(3) == registered[2] {
		t.Fatal("evicted v3 returned its old instance")
	}
}

func TestInstanceRejectsMutatedArtifact(t *testing.T) {
	dir := t.TempDir()
	path := trainModel(t, dir, "m.json", []int{3}, 1)
	r := New(1)
	if _, err := r.Register("web", path); err != nil {
		t.Fatal(err)
	}
	// Evict v1 by warming a second artifact, then rewrite v1's bytes.
	path2 := trainModel(t, dir, "m2.json", []int{3}, 2)
	if _, err := r.Register("web", path2); err != nil {
		t.Fatal(err)
	}
	trainModelOver(t, path, 99)
	_, err := r.Instance("web", 1)
	if err == nil || !strings.Contains(err.Error(), "changed on disk") {
		t.Fatalf("rehydrating a mutated artifact gave %v, want changed-on-disk error", err)
	}
}

// trainModelOver rewrites path with a model from a different seed.
func trainModelOver(t *testing.T, path string, seed uint64) {
	t.Helper()
	trained := trainModel(t, t.TempDir(), "tmp.json", []int{3}, seed)
	m, err := core.LoadModelFile(trained)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New(4)
	if _, err := r.Register("", "nope.json"); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if _, err := r.Register("a@b", "nope.json"); err == nil {
		t.Fatal("tenant with @ accepted")
	}
	if _, err := r.Register("web", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing artifact accepted")
	}
	if _, err := r.Instance("web", 1); err == nil {
		t.Fatal("unknown version resolved")
	}
}
