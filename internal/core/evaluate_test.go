package core

import (
	"math"
	"testing"

	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// tablePredictor replies with a fixed output per input row, letting the
// metric tests pin Evaluate against hand-computed values.
type tablePredictor struct {
	out map[float64][]float64 // keyed by the row's first feature
}

func (p *tablePredictor) Predict(x []float64) []float64 {
	return append([]float64(nil), p.out[x[0]]...)
}

// TestEvaluateOneExactPrediction is the failing-before regression test for
// the accuracy-inflating edge case: one coincidentally exact prediction
// used to zero the indicator's HMRE. With the floor fix the hand-computed
// value is 2/(1e6+6) — see stats.RelErrFloor.
func TestEvaluateOneExactPrediction(t *testing.T) {
	ds := workload.NewDataset([]string{"x"}, []string{"t"})
	ds.MustAppend(workload.Sample{X: []float64{1}, Y: []float64{5}})
	ds.MustAppend(workload.Sample{X: []float64{2}, Y: []float64{6}})
	p := &tablePredictor{out: map[float64][]float64{
		1: {5}, // exact
		2: {7}, // relative error 1/6
	}}
	ev, err := Evaluate(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / (1e6 + 6)
	if math.Abs(ev.HMRE[0]-want) > 1e-15 {
		t.Fatalf("HMRE = %v, want %v (one exact prediction must not zero the metric)", ev.HMRE[0], want)
	}
	if ev.MeanHMRE() == 0 {
		t.Fatal("MeanHMRE reported a perfect score off one exact prediction")
	}
}

// TestEvaluateAllZeroActuals is the failing-before regression test for the
// second edge case: an indicator whose actuals are all zero used to map to
// HMRE = 0 and count as perfect. It must now be NaN, skipped by the
// aggregates, and listed by Undefined.
func TestEvaluateAllZeroActuals(t *testing.T) {
	ds := workload.NewDataset([]string{"x"}, []string{"dead", "live"})
	ds.MustAppend(workload.Sample{X: []float64{1}, Y: []float64{0, 100}})
	ds.MustAppend(workload.Sample{X: []float64{2}, Y: []float64{0, 100}})
	p := &tablePredictor{out: map[float64][]float64{
		1: {3, 110}, // live: relative error 0.10
		2: {4, 105}, // live: relative error 0.05
	}}
	ev, err := Evaluate(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ev.HMRE[0]) {
		t.Fatalf("all-zero-actual indicator HMRE = %v, want NaN", ev.HMRE[0])
	}
	// Hand-computed: HM(0.10, 0.05) = 2/(10+20) = 1/15.
	if math.Abs(ev.HMRE[1]-1.0/15.0) > 1e-12 {
		t.Fatalf("live indicator HMRE = %v, want 1/15", ev.HMRE[1])
	}
	if got := ev.MeanHMRE(); math.Abs(got-1.0/15.0) > 1e-12 {
		t.Fatalf("MeanHMRE = %v — the undefined indicator must be skipped, not counted as perfect", got)
	}
	undef := ev.Undefined()
	if len(undef) != 1 || undef[0] != "dead" {
		t.Fatalf("Undefined() = %v, want [dead]", undef)
	}
}

// TestEvaluateAllIndicatorsUndefined: when no indicator is defined the
// aggregates must be NaN, never a (perfect-looking) number.
func TestEvaluateAllIndicatorsUndefined(t *testing.T) {
	ds := workload.NewDataset([]string{"x"}, []string{"t"})
	ds.MustAppend(workload.Sample{X: []float64{1}, Y: []float64{0}})
	p := &tablePredictor{out: map[float64][]float64{1: {2}}}
	ev, err := Evaluate(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ev.MeanHMRE()) {
		t.Fatalf("MeanHMRE = %v, must be NaN", ev.MeanHMRE())
	}
}

// TestMeanSkipNaNMatchesEvaluate keeps the aggregate semantics in one
// place: Evaluation aggregates must agree with stats.MeanSkipNaN.
func TestMeanSkipNaNMatchesEvaluate(t *testing.T) {
	ev := &Evaluation{HMRE: []float64{0.1, math.NaN(), 0.3}}
	if got, want := ev.MeanHMRE(), stats.MeanSkipNaN(ev.HMRE); got != want {
		t.Fatalf("MeanHMRE = %v, MeanSkipNaN = %v", got, want)
	}
}
