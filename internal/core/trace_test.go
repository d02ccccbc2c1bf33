package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nnwc/internal/obs"
	"nnwc/internal/obs/obstest"
	"nnwc/internal/sched"
)

// tracedCV runs the standard seeded cross-validation with tracing enabled
// at the given worker count and returns the raw JSONL plus the result.
func tracedCV(t *testing.T, workers int) ([]byte, *CVResult) {
	t.Helper()
	ds := syntheticDataset(120, 42)
	cfg := fastConfig()
	var buf bytes.Buffer
	cfg.Trace = obs.NewTrace(obs.NewWriterSink(&buf))
	res, err := CrossValidateWorkers(ds, cfg, 4, 7, workers)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestTracedCrossValidationMatchesSeedReference proves tracing is inert:
// with a trace attached, the pinned Table-2 reference numbers must still
// reproduce to 1e-9.
func TestTracedCrossValidationMatchesSeedReference(t *testing.T) {
	_, res := tracedCV(t, 1)
	for j, want := range []float64{seedRefAvg0, seedRefAvg1} {
		if math.Abs(res.Averages[j]-want) > 1e-9 {
			t.Fatalf("avg[%d] = %.17g with tracing on, seed reference %.17g",
				j, res.Averages[j], want)
		}
	}
	if got := res.OverallError(); math.Abs(got-seedRefOverall) > 1e-9 {
		t.Fatalf("overall = %.17g with tracing on, seed reference %.17g", got, seedRefOverall)
	}
}

// TestTraceDeterministicAcrossWorkers pins the Fork/Slot/Join ordering: the
// canonical trace (volatile keys stripped) must be byte-identical across
// repeated runs AND across worker counts.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	canon := func(workers int) []byte {
		raw, _ := tracedCV(t, workers)
		c, err := obstest.CanonicalizeJSONL(raw)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := canon(1)
	if len(ref) == 0 {
		t.Fatal("empty canonical trace")
	}
	again := canon(1)
	if !bytes.Equal(ref, again) {
		t.Fatal("same-worker repeat produced a different canonical trace")
	}
	for _, w := range []int{2, 8} {
		if got := canon(w); !bytes.Equal(ref, got) {
			t.Fatalf("canonical trace at workers=%d differs from workers=1", w)
		}
	}
}

// TestCrossValidationTraceShape checks the event stream structure: cv_start
// first, folds emitted in ascending order with per-target errors, spans for
// every fold, and a cv_summary carrying the overall error.
func TestCrossValidationTraceShape(t *testing.T) {
	raw, res := tracedCV(t, 4)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !strings.Contains(lines[0], `"ev":"cv_start"`) {
		t.Fatalf("first event is not cv_start: %s", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"ev":"cv_summary"`) || !strings.Contains(last, `"overall_error":`) {
		t.Fatalf("last event is not a cv_summary with overall_error: %s", last)
	}

	sum, err := obs.SummarizeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByName["fold"] != 4 {
		t.Fatalf("expected 4 fold events, got %d", sum.ByName["fold"])
	}
	if sp := sum.Spans["cv-fold"]; sp.Count != 4 {
		t.Fatalf("expected 4 cv-fold spans, got %d", sp.Count)
	}
	if sum.ByName["fit_start"] != 4 || sum.ByName["fit_end"] != 4 {
		t.Fatalf("expected one fit per fold, got start=%d end=%d",
			sum.ByName["fit_start"], sum.ByName["fit_end"])
	}
	for f := 0; f < 4; f++ {
		got, ok := sum.FoldErrors[f]
		if !ok {
			t.Fatalf("fold %d missing from trace", f)
		}
		// The fold event's mean_hmre must agree with the computed trial.
		var want float64
		n := 0
		for _, e := range res.Trials[f].Errors {
			if !math.IsNaN(e) {
				want += e
				n++
			}
		}
		want /= float64(n)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("fold %d traced mean_hmre %g != computed %g", f, got, want)
		}
	}

	// Fold events must appear in ascending fold order (Join replays slots
	// in index order).
	prev := -1
	for _, l := range lines {
		if !strings.Contains(l, `"ev":"fold"`) {
			continue
		}
		idx := strings.Index(l, `"fold":`)
		f := int(l[idx+len(`"fold":`)] - '0')
		if f <= prev {
			t.Fatalf("fold events out of order: %d after %d", f, prev)
		}
		prev = f
	}
}

// TestEnsembleTraceDeterministic covers the second fan-out path.
func TestEnsembleTraceDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		ds := syntheticDataset(80, 13)
		cfg := fastConfig()
		cfg.Train.MaxEpochs = 200
		var buf bytes.Buffer
		cfg.Trace = obs.NewTrace(obs.NewWriterSink(&buf))
		defer sched.SetWorkers(0)
		sched.SetWorkers(workers)
		if _, err := FitEnsemble(ds, cfg, 3); err != nil {
			t.Fatal(err)
		}
		c, err := obstest.CanonicalizeJSONL(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := run(1)
	if len(ref) == 0 {
		t.Fatal("ensemble fit emitted no events")
	}
	for _, w := range []int{2, 8} {
		if got := run(w); !bytes.Equal(ref, got) {
			t.Fatalf("ensemble canonical trace at workers=%d differs from workers=1", w)
		}
	}
}
