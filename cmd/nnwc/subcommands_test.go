package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/dist/jobs"
	"nnwc/internal/experiments"
	"nnwc/internal/workload"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("1, 2.5 ,-3,inf")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2.5 || got[2] != -3 || !math.IsInf(got[3], 1) {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseFloats("1,zap"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("8,16,24")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 8 || got[2] != 24 {
		t.Fatalf("parsed %v", got)
	}
}

func TestParseRange(t *testing.T) {
	got, err := parseRange("0:10:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 0 || got[4] != 10 {
		t.Fatalf("range %v", got)
	}
	for _, bad := range []string{"1:2", "a:2:3", "1:b:3", "1:2:c"} {
		if _, err := parseRange(bad); err == nil {
			t.Fatalf("range %q accepted", bad)
		}
	}
}

// TestEndToEndCLIFlow exercises datagen → train → crossval → predict →
// surface against real files in a temp dir — the full toolchain a user
// would run.
func TestEndToEndCLIFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	model := filepath.Join(dir, "model.json")

	err := cmdDatagen([]string{
		"-out", data, "-seed", "5",
		"-rates", "400,480", "-mfg", "16", "-web", "12,16,20", "-default", "4,8",
		"-warmup", "2", "-window", "8",
	})
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	if _, err := os.Stat(data); err != nil {
		t.Fatal("data.csv not written")
	}

	if err := cmdTrain([]string{"-data", data, "-model", model, "-hidden", "10", "-epochs", "300"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatal("model.json not written")
	}

	if err := cmdCrossval([]string{"-data", data, "-k", "3", "-hidden", "8", "-epochs", "200"}); err != nil {
		t.Fatalf("crossval: %v", err)
	}

	if err := cmdPredict([]string{"-model", model, "-x", "440,6,16,14"}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	if err := cmdPredict([]string{"-model", model, "-x", "440,6"}); err == nil {
		t.Fatal("predict accepted wrong arity")
	}

	surfaceCSV := filepath.Join(dir, "surface.csv")
	err = cmdSurface([]string{
		"-model", model, "-output", "1",
		"-fixed", "440,0,16,0", "-xi", "1", "-yi", "3",
		"-xrange", "4:8:3", "-yrange", "12:20:3", "-csv", surfaceCSV,
	})
	if err != nil {
		t.Fatalf("surface: %v", err)
	}
	if _, err := os.Stat(surfaceCSV); err != nil {
		t.Fatal("surface CSV not written")
	}

	err = cmdRecommend([]string{
		"-model", model, "-maximize", "4",
		"-lo", "440,4,16,12", "-hi", "440,8,16,20",
	})
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}

	if err := cmdCompare([]string{"-data", data, "-k", "3", "-epochs", "200"}); err != nil {
		t.Fatalf("compare: %v", err)
	}
}

// TestCLIMatchesReproduction pins that datagen followed by crossval, at
// crossval's default seed, computes the reproduction's Table 2 bit for bit
// (here on the -quick campaign).
func TestCLIMatchesReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	data := filepath.Join(t.TempDir(), "quick.csv")
	if err := cmdDatagen([]string{
		"-out", data, "-rates", "480,560", "-mfg", "8,16", "-web", "10,14,18,22", "-default", "2,6,10",
		"-warmup", "4", "-window", "16",
	}); err != nil {
		t.Fatalf("datagen: %v", err)
	}
	got, err := crossval([]string{"-data", data, "-epochs", "400"})
	if err != nil {
		t.Fatalf("crossval: %v", err)
	}
	want, err := experiments.NewQuick(io.Discard, t.TempDir()).CrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Averages) != len(want.Averages) {
		t.Fatalf("CLI averages %v, reproduction %v", got.Averages, want.Averages)
	}
	for j := range want.Averages {
		if math.Float64bits(got.Averages[j]) != math.Float64bits(want.Averages[j]) {
			t.Fatalf("average %d: CLI %v, reproduction %v", j, got.Averages[j], want.Averages[j])
		}
	}
}

func TestReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	if err := cmdReproduce([]string{"-quick", "-run", "table2", "-out", t.TempDir(), "-quiet"}); err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if err := cmdReproduce([]string{"-run", "table2,nope"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := loadDataset("/nonexistent/x.csv"); err == nil {
		t.Fatal("missing dataset accepted")
	}
	if _, err := core.LoadModelFile("/nonexistent/m.json"); err == nil {
		t.Fatal("missing model accepted")
	}
}

// TestAnalysisSubcommands exercises importance and select against a tiny
// generated dataset and trained model.
func TestAnalysisSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "d.csv")
	model := filepath.Join(dir, "m.json")
	if err := cmdDatagen([]string{
		"-out", data, "-rates", "480,560", "-mfg", "8,16", "-web", "12,18", "-default", "4,8",
		"-warmup", "2", "-window", "8",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-data", data, "-model", model, "-hidden", "8", "-epochs", "200"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdImportance([]string{"-model", model, "-data", data, "-repeats", "2"}); err != nil {
		t.Fatalf("importance: %v", err)
	}
	if err := cmdSelect([]string{"-data", data, "-k", "3", "-epochs", "150", "-candidates", "4;8"}); err != nil {
		t.Fatalf("select: %v", err)
	}
	if err := cmdSelect([]string{"-data", data, "-candidates", "4;zap"}); err == nil {
		t.Fatal("bad candidate layout accepted")
	}
}

func TestParseBound(t *testing.T) {
	lo, hi, err := parseBound("2:24")
	if err != nil || lo != 2 || hi != 24 {
		t.Fatalf("parseBound: %v %v %v", lo, hi, err)
	}
	for _, bad := range []string{"2", "a:3", "2:b", "1:2:3"} {
		if _, _, err := parseBound(bad); err == nil {
			t.Fatalf("bound %q accepted", bad)
		}
	}
}

func TestDoegenFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	for _, design := range []string{"lhs", "random", "factorial"} {
		out := filepath.Join(dir, design+".csv")
		args := []string{"-out", out, "-design", design, "-n", "12", "-levels", "2", "-warmup", "1", "-window", "4"}
		if err := cmdDoegen(args); err != nil {
			t.Fatalf("doegen %s: %v", design, err)
		}
		ds, err := loadDataset(out)
		if err != nil {
			t.Fatal(err)
		}
		want := 12
		if design == "factorial" {
			want = 16 // 2^4 levels
		}
		if ds.Len() != want {
			t.Fatalf("%s produced %d samples, want %d", design, ds.Len(), want)
		}
	}
	if err := cmdDoegen([]string{"-design", "nope"}); err == nil {
		t.Fatal("unknown design accepted")
	}
	if err := cmdDoegen([]string{"-rate", "bad"}); err == nil {
		t.Fatal("bad bound accepted")
	}
}

func TestSimulateFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	if err := cmdSimulate([]string{"-x", "400,8,16,18", "-warmup", "2", "-window", "8"}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := cmdSimulate([]string{"-x", "400,8,16,18", "-users", "100", "-think", "0.4", "-warmup", "2", "-window", "8"}); err != nil {
		t.Fatalf("simulate closed: %v", err)
	}
	if err := cmdSimulate([]string{"-x", "1,2"}); err == nil {
		t.Fatal("short vector accepted")
	}
	if err := cmdSimulate([]string{"-x", "zap"}); err == nil {
		t.Fatal("bad vector accepted")
	}
}

func TestRecommendPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "d.csv")
	model := filepath.Join(dir, "m.json")
	if err := cmdDatagen([]string{
		"-out", data, "-rates", "480,560", "-mfg", "8,16", "-web", "12,20", "-default", "4,10",
		"-warmup", "2", "-window", "8",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-data", data, "-model", model, "-hidden", "8", "-epochs", "200"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRecommend([]string{
		"-model", model, "-pareto",
		"-lo", "520,4,8,12", "-hi", "520,10,16,20",
	}); err != nil {
		t.Fatalf("pareto recommend: %v", err)
	}
}

func TestSimulateJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	if err := cmdSimulate([]string{"-x", "300,8,16,18", "-warmup", "1", "-window", "5", "-json"}); err != nil {
		t.Fatalf("simulate -json: %v", err)
	}
}

// TestRecommendRejectsMismatchedInput pins clean errors, not panics, for
// -lo/-hi vectors whose length is not the model's feature count and for a
// -maximize index past its indicators.
func TestRecommendRejectsMismatchedInput(t *testing.T) {
	ds := workload.NewDataset(
		[]string{"injection_rate", "mfg_threads", "web_threads", "default_threads"},
		[]string{"a", "b", "c", "d", "e"})
	for i := 0; i < 8; i++ {
		x := []float64{480 + float64(i%2)*80, float64(2 + i), 12, float64(4 + i%3)}
		ds.MustAppend(workload.Sample{X: x, Y: []float64{x[1], x[2], x[3], x[0] / 100, x[1] + x[3]}})
	}
	cfg, err := jobs.ModelConfig("3", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "m.json")
	if err := m.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-lo", "560,2", "-hi", "560,16"},
		{"-lo", "560,2,8,8", "-hi", "560,16,24"},
		{"-maximize", "9"},
		{"-maximize", "-1"},
		{"-maximize", "9", "-pareto"},
	} {
		if err := cmdRecommend(append([]string{"-model", model}, args...)); err == nil {
			t.Errorf("recommend %v accepted", args)
		}
	}
}
