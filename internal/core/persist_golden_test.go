package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestGoldenModelRoundTrip loads the committed model fixture written by the
// pre-flat-weights implementation and checks it predicts identically under
// the flat-parameter network. This pins the persisted-model format across
// the memory-layout refactor: scaler parameters, schema, and nested weight
// rows all keep loading.
func TestGoldenModelRoundTrip(t *testing.T) {
	f, err := os.Open("testdata/golden_model.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	model, err := LoadModel(f)
	if err != nil {
		t.Fatalf("golden model no longer loads: %v", err)
	}
	if model.InputDim() != 2 || model.OutputDim() != 2 {
		t.Fatalf("golden model dims %d->%d", model.InputDim(), model.OutputDim())
	}

	raw, err := os.ReadFile("testdata/golden_model_predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Probes      [][]float64 `json:"probes"`
		Predictions [][]float64 `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Probes) == 0 {
		t.Fatal("golden fixture has no probes")
	}
	for i, x := range doc.Probes {
		got := model.Predict(x)
		for j, want := range doc.Predictions[i] {
			if math.Abs(got[j]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("probe %d output %d: got %v, golden %v", i, j, got[j], want)
			}
		}
	}

	// The batched path must agree with the per-probe path exactly.
	batch := model.PredictAll(doc.Probes)
	for i := range doc.Probes {
		for j, want := range doc.Predictions[i] {
			if math.Abs(batch[i][j]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("batched probe %d output %d: got %v, golden %v", i, j, batch[i][j], want)
			}
		}
	}

	// Saving the loaded model and loading it again must round-trip.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range doc.Probes {
		got, want := back.Predict(x), model.Predict(x)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("re-saved probe %d output %d drifted: %v vs %v", i, j, got[j], want[j])
			}
		}
	}
}

// loadLegacyF32Fixture loads the committed artifact written when models
// also persisted a params_f32 quantized copy of their weights, along with
// the same document with that field removed.
func loadLegacyF32Fixture(t *testing.T) (legacy, plain *NNModel) {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_model_f32.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["params_f32"]; !ok {
		t.Fatal("legacy fixture carries no params_f32 field")
	}
	delete(doc, "params_f32")
	stripped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	legacy, err = LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy artifact no longer loads: %v", err)
	}
	plain, err = LoadModel(bytes.NewReader(stripped))
	if err != nil {
		t.Fatal(err)
	}
	return legacy, plain
}

var legacyProbes = [][]float64{{0, 0}, {1.5, -1.5}, {-2, 2}, {0.25, 0.75}}

func assertSamePredictions(t *testing.T, what string, got, want *NNModel) {
	t.Helper()
	g, w := got.PredictAll(legacyProbes), want.PredictAll(legacyProbes)
	for i := range legacyProbes {
		for j := range w[i] {
			if g[i][j] != w[i][j] {
				t.Fatalf("probe %d output %d: %s %v, want %v", i, j, what, g[i][j], w[i][j])
			}
		}
	}
}

// TestF32GoldenModel checks the loader ignores a legacy artifact's
// params_f32 field: the model predicts bit-identically to the same
// document without it.
func TestF32GoldenModel(t *testing.T) {
	legacy, plain := loadLegacyF32Fixture(t)
	assertSamePredictions(t, "legacy", legacy, plain)
}

// TestQuantizedArtifactRoundTrip checks that re-saving a legacy artifact
// drops its params_f32 field and that the re-saved model loads back and
// predicts bit-identically.
func TestQuantizedArtifactRoundTrip(t *testing.T) {
	legacy, _ := loadLegacyF32Fixture(t)
	var buf bytes.Buffer
	if err := legacy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("params_f32")) {
		t.Fatal("re-saved legacy model still writes params_f32")
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, "re-saved", back, legacy)
}

// TestLoadModelRejectsNonFiniteSlope checks that the golden model with its
// hidden activation rewritten to a non-finite logistic slope is refused:
// it would load and then predict NaN for every input.
func TestLoadModelRejectsNonFiniteSlope(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_model.json")
	if err != nil {
		t.Fatal(err)
	}
	hidden := []byte(`"activation": "logistic(1)"`)
	if n := bytes.Count(raw, hidden); n != 1 {
		t.Fatalf("golden model has %d logistic(1) layers, want 1", n)
	}
	for _, bad := range []string{"logistic(NaN)", "logistic(+Inf)", "logistic(-Inf)", "logistic(1)junk"} {
		doc := bytes.Replace(raw, hidden, []byte(`"activation": "`+bad+`"`), 1)
		if _, err := LoadModel(bytes.NewReader(doc)); err == nil {
			t.Errorf("model with hidden activation %s accepted", bad)
		}
	}
}
