package core

import (
	"math"
	"testing"
)

func TestEnsemblePredictIsMemberMean(t *testing.T) {
	ds := syntheticDataset(80, 50)
	e, err := FitEnsemble(ds, fastConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Members) != 3 {
		t.Fatalf("%d members", len(e.Members))
	}
	x := []float64{0.4, -0.4}
	got := e.Predict(x)
	want := make([]float64, e.OutputDim())
	for _, m := range e.Members {
		out := m.Predict(x)
		for j, v := range out {
			want[j] += v / 3
		}
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("ensemble mean wrong: %v vs %v", got[j], want[j])
		}
	}
}

func TestEnsembleMembersDiffer(t *testing.T) {
	ds := syntheticDataset(60, 51)
	e, err := FitEnsemble(ds, fastConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.1}
	a := e.Members[0].Predict(x)[0]
	b := e.Members[1].Predict(x)[0]
	if a == b {
		t.Fatal("members trained identically despite different seeds")
	}
}

func TestEnsembleSpreadGrowsOutOfRange(t *testing.T) {
	ds := syntheticDataset(100, 52) // inputs within [-2, 2]
	e, err := FitEnsemble(ds, fastConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	_, inSpread := e.PredictWithSpread([]float64{0.5, 0.5})
	_, outSpread := e.PredictWithSpread([]float64{8, -8})
	var inSum, outSum float64
	for j := range inSpread {
		inSum += inSpread[j]
		outSum += outSpread[j]
	}
	if outSum <= inSum {
		t.Fatalf("spread did not grow out of range: in %v, out %v", inSum, outSum)
	}
}

func TestEnsembleSpreadNonNegative(t *testing.T) {
	ds := syntheticDataset(50, 53)
	e, err := FitEnsemble(ds, fastConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, spread := e.PredictWithSpread([]float64{0, 0})
	for _, s := range spread {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("bad spread %v", s)
		}
	}
}

func TestEnsembleAtLeastAsGoodAsWorstMember(t *testing.T) {
	ds := syntheticDataset(120, 54)
	test := syntheticDataset(40, 55)
	e, err := FitEnsemble(ds, fastConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	memberErrs := make([]float64, len(e.Members))
	for i, m := range e.Members {
		ev, err := Evaluate(m, test)
		if err != nil {
			t.Fatal(err)
		}
		memberErrs[i] = ev.MeanHMRE()
	}
	ev, err := Evaluate(e, test)
	if err != nil {
		t.Fatal(err)
	}
	worst := memberErrs[0]
	for _, v := range memberErrs[1:] {
		if v > worst {
			worst = v
		}
	}
	if ev.MeanHMRE() > worst*1.05 {
		t.Fatalf("ensemble error %v exceeds worst member %v", ev.MeanHMRE(), worst)
	}
}

func TestEnsembleErrors(t *testing.T) {
	ds := syntheticDataset(30, 56)
	if _, err := FitEnsemble(ds, fastConfig(), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := FitEnsemble(nil, fastConfig(), 2); err == nil {
		t.Fatal("nil dataset accepted")
	}
}
