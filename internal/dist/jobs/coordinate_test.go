package jobs

import (
	"os"
	"reflect"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/obs"
	"nnwc/internal/workload"
)

// TestLoadHashedArtifacts pins the coordinator's single read of an
// artifact: the hash it returns is the file's hash, and the value it parsed
// from the same bytes equals a direct parse of the file.
func TestLoadHashedArtifacts(t *testing.T) {
	csvPath := writeParityCSV(t)
	ds, sha, err := loadHashedDataset(csvPath)
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
	if !reflect.DeepEqual(ds, direct) {
		t.Fatal("dataset parsed by the coordinator differs from a direct ReadCSV")
	}

	const modelPath = "../../core/testdata/golden_model.json"
	model, sha, err := loadHashedModel(modelPath)
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
	if !reflect.DeepEqual(model, directModel) {
		t.Fatal("model loaded by the coordinator differs from LoadModelFile")
	}
}
