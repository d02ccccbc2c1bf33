package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nnwc/internal/obs"
	"nnwc/internal/obs/obstest"
	"nnwc/internal/sched"
)

// runTable2At runs the Table-2 cross-validation experiment at the given
// worker count and returns the printed report plus the CSV artifact.
func runTable2At(t *testing.T, workers int) (string, string) {
	t.Helper()
	defer sched.SetWorkers(0)
	sched.SetWorkers(workers)
	var buf bytes.Buffer
	dir := t.TempDir()
	c := NewQuick(&buf, dir)
	c.Sys.WarmupTime = 2
	c.Sys.MeasureTime = 8
	if err := c.RunTable2(); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), string(csv)
}

// The experiment harness must print and persist byte-identical results at
// every worker count: fold seeds derive from fold indices and reductions
// replay in fold order, so parallelism never leaks into the artifacts.
func TestRunTable2BitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	refOut, refCSV := runTable2At(t, 1)
	for _, w := range []int{2, 8} {
		out, csv := runTable2At(t, w)
		if out != refOut {
			t.Fatalf("workers=%d report differs from workers=1:\n--- workers=%d ---\n%s\n--- workers=1 ---\n%s", w, w, out, refOut)
		}
		if csv != refCSV {
			t.Fatalf("workers=%d table2.csv differs from workers=1", w)
		}
	}
}

// traceTable2At runs the Table-2 experiment with a trace at the given
// worker count, for the fan-outs and for sample collection alike, and
// returns the raw JSONL trace.
func traceTable2At(t *testing.T, workers int) []byte {
	t.Helper()
	defer sched.SetWorkers(0)
	sched.SetWorkers(workers)
	var trace bytes.Buffer
	c := NewQuick(io.Discard, t.TempDir())
	c.Sys.WarmupTime = 2
	c.Sys.MeasureTime = 8
	c.Trace = obs.NewTrace(obs.NewWriterSink(&trace))
	if err := c.RunTable2(); err != nil {
		t.Fatal(err)
	}
	return trace.Bytes()
}

// The dataset collection shows in the experiments trace as one
// threetier.collect event whose deterministic fields describe the
// campaign, whose wall time sits under the volatile "ms" key, and which
// `nnwc runs show` lists; the canonical trace is the same at one worker
// and at two.
func TestTable2TraceHoldsCollectEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	raw := traceTable2At(t, 1)
	var collects []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev["ev"] == "threetier.collect" {
			collects = append(collects, ev)
		}
	}
	if len(collects) != 1 {
		t.Fatalf("%d threetier.collect events, want 1", len(collects))
	}
	ev := collects[0]
	// NewQuick's sweep: 2 rates × 2 mfg × 4 web × 3 default = 48 configs,
	// one replicate each, 2 s warm-up + 8 s measurement per run.
	if ev["configs"] != 48.0 || ev["replicates"] != 1.0 || ev["simulated_s"] != 480.0 {
		t.Fatalf("collect event %v, want configs 48, replicates 1, simulated_s 480", ev)
	}
	if ms, ok := ev["ms"].(float64); !ok || ms <= 0 {
		t.Fatalf("collect event %v has no positive wall time under ms", ev)
	}
	sum, err := obs.SummarizeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByName["threetier.collect"] != 1 {
		t.Fatalf("trace summary counts %d threetier.collect events, want 1", sum.ByName["threetier.collect"])
	}

	ref, err := obstest.CanonicalizeJSONL(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obstest.CanonicalizeJSONL(traceTable2At(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("canonical table2 trace at workers=2 differs from workers=1")
	}
}
