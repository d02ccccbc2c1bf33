package nn

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"nnwc/internal/rng"
)

// TestGenerateGoldenNetwork regenerates the golden serialization fixture.
// It only runs when NNWC_GEN_GOLDEN=1; the committed fixture was produced
// by the pre-flat-weights implementation so the round-trip test proves
// format compatibility across the refactor.
func TestGenerateGoldenNetwork(t *testing.T) {
	if os.Getenv("NNWC_GEN_GOLDEN") != "1" {
		t.Skip("set NNWC_GEN_GOLDEN=1 to regenerate golden files")
	}
	src := rng.New(20260805)
	net := NewNetwork([]int{4, 6, 3}, Logistic{Alpha: 1.5}, Identity{})
	XavierInit(net, src)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_network.json", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Record predictions at fixed probe points so the post-refactor loader
	// can be checked bit-for-bit.
	probes := [][]float64{
		{0, 0, 0, 0},
		{1, -1, 0.5, 2},
		{-0.3, 0.7, -1.9, 0.01},
		{10, -10, 3, -3},
	}
	var preds [][]float64
	for _, x := range probes {
		preds = append(preds, net.Forward(x))
	}
	doc := map[string]interface{}{"probes": probes, "predictions": preds}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_network_predictions.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
}
