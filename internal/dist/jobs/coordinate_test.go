package jobs

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/obs"
	"nnwc/internal/workload"
)

// TestLoadHashedArtifacts pins the coordinator's single read of an
// artifact: the hash it returns is the file's hash, and the value it parsed
// from the same bytes into the cache equals a direct parse of the file.
func TestLoadHashedArtifacts(t *testing.T) {
	csvPath := writeParityCSV(t)
	sha, err := loadHashed(RoleDataset, csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := obs.HashFile(csvPath); err != nil || sha != want {
		t.Fatalf("dataset hash %s, want %s (%v)", sha, want, err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	direct, err := workload.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	sharedCache.mu.Lock()
	ds := sharedCache.datasets[sha]
	sharedCache.mu.Unlock()
	if !reflect.DeepEqual(ds, direct) {
		t.Fatal("dataset parsed by the coordinator differs from a direct ReadCSV")
	}

	const modelPath = "../../core/testdata/golden_model.json"
	sha, err = loadHashed(RoleModel, modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := obs.HashFile(modelPath); err != nil || sha != want {
		t.Fatalf("model hash %s, want %s (%v)", sha, want, err)
	}
	directModel, err := core.LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	sharedCache.mu.Lock()
	model := sharedCache.models[sha]
	sharedCache.mu.Unlock()
	if !reflect.DeepEqual(model, directModel) {
		t.Fatal("model loaded by the coordinator differs from LoadModelFile")
	}
}

// invalidLayouts are hidden sizes that are not finite or truncate below 1.
var invalidLayouts = []string{"0", "-3", "inf", "nan", "0.5", "16,0"}

func TestParseLayoutRejectsInvalidSizes(t *testing.T) {
	for _, s := range invalidLayouts {
		if got, err := ParseLayout(s); err == nil {
			t.Errorf("ParseLayout(%q) = %v, want an error", s, got)
		}
	}
	for s, want := range map[string][]int{"16": {16}, "16, 8": {16, 8}, "1.5": {1}} {
		if got, err := ParseLayout(s); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseLayout(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

// TestCoordinateCrossvalRejectsInvalidHidden checks the coordinator fails
// on an invalid -hidden before it starts serving tasks.
func TestCoordinateCrossvalRejectsInvalidHidden(t *testing.T) {
	csvPath := writeParityCSV(t)
	opt := Options{Addr: "127.0.0.1:0", OnStart: func(string) { t.Fatal("coordinator started") }}
	if _, _, err := CoordinateCrossval(context.Background(), opt, csvPath, 4, "0", 10, 1); err == nil {
		t.Fatal("CoordinateCrossval accepted -hidden 0")
	}
}

// TestSelectRunnerRejectsInvalidCandidate checks a worker handed a select
// candidate with a zero-width layer reports a task error instead of
// panicking.
func TestSelectRunnerRejectsInvalidCandidate(t *testing.T) {
	csvPath := writeParityCSV(t)
	sha, err := obs.HashFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(SelectConfig{K: 4, Epochs: 10, Candidates: [][]int{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	spec := dist.Spec{Kind: KindSelect, Seed: 1, NumTasks: 1, Config: cfg, Artifacts: map[string]string{RoleDataset: sha}}
	if _, err := run(context.Background(), stubEnv{path: csvPath}, spec, 0); err == nil {
		t.Fatal("select runner accepted candidate [0]")
	}
}
