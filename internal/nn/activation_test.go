package nn

import (
	"math"
	"testing"
	"testing/quick"
)

// numericDeriv estimates f'(x) by central differences.
func numericDeriv(f func(float64) float64, x float64) float64 {
	const h = 1e-6
	return (f(x+h) - f(x-h)) / (2 * h)
}

func activations() []Activation {
	return []Activation{
		Logistic{Alpha: 1},
		Logistic{Alpha: 0.5},
		Logistic{Alpha: 3},
		Tanh{},
		Identity{},
		LogCompress{},
	}
}

func TestDerivMatchesNumeric(t *testing.T) {
	for _, act := range activations() {
		for _, x := range []float64{-3, -1, -0.1, 0.1, 1, 3} {
			y := act.Eval(x)
			got := act.Deriv(x, y)
			want := numericDeriv(act.Eval, x)
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("%s: deriv at %v = %v, numeric %v", act.Name(), x, got, want)
			}
		}
	}
}

func TestReLUDeriv(t *testing.T) {
	r := ReLU{}
	if r.Deriv(2, 2) != 1 || r.Deriv(-2, 0) != 0 {
		t.Fatal("ReLU derivative wrong")
	}
	if r.Eval(-5) != 0 || r.Eval(5) != 5 {
		t.Fatal("ReLU value wrong")
	}
}

func TestLogisticRange(t *testing.T) {
	if err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		y := Logistic{Alpha: 1}.Eval(x)
		return y >= 0 && y <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogisticMidpointAndMonotone(t *testing.T) {
	l := Logistic{Alpha: 2}
	if math.Abs(l.Eval(0)-0.5) > 1e-12 {
		t.Fatal("logistic(0) != 0.5")
	}
	prev := math.Inf(-1)
	for x := -10.0; x <= 10; x += 0.25 {
		y := l.Eval(x)
		if y <= prev {
			t.Fatal("logistic is not strictly increasing")
		}
		prev = y
	}
}

func TestLogisticSlopeHardens(t *testing.T) {
	// Figure 2's property: larger α approaches a hard limiter.
	soft := Logistic{Alpha: 0.5}.Eval(1)
	hard := Logistic{Alpha: 5}.Eval(1)
	if !(hard > soft) {
		t.Fatalf("at x=1: alpha=5 gives %v, alpha=0.5 gives %v", hard, soft)
	}
	if (Logistic{Alpha: 50}).Eval(0.5) < 0.999 {
		t.Fatal("very steep sigmoid should saturate fast")
	}
}

func TestTanhOddSymmetry(t *testing.T) {
	if err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 100 {
			return true
		}
		return math.Abs(Tanh{}.Eval(x)+Tanh{}.Eval(-x)) < 1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogCompressProperties(t *testing.T) {
	lc := LogCompress{}
	// Odd symmetry and monotonicity.
	if math.Abs(lc.Eval(3)+lc.Eval(-3)) > 1e-12 {
		t.Fatal("LogCompress not odd")
	}
	if lc.Eval(0) != 0 {
		t.Fatal("LogCompress(0) != 0")
	}
	// Unbounded but sublinear growth — the extrapolation property.
	if lc.Eval(1e6) < 10 {
		t.Fatal("LogCompress should keep growing")
	}
	if lc.Eval(1e6) > 20 {
		t.Fatal("LogCompress should grow slowly")
	}
}

func TestActivationByNameRoundTrip(t *testing.T) {
	for _, act := range append(activations(), ReLU{}) {
		back, err := ActivationByName(act.Name())
		if err != nil {
			t.Fatalf("%s: %v", act.Name(), err)
		}
		for _, x := range []float64{-2, 0, 1.5} {
			if math.Abs(back.Eval(x)-act.Eval(x)) > 1e-12 {
				t.Fatalf("%s: round-tripped activation differs at %v", act.Name(), x)
			}
		}
	}
}

func TestActivationByNameUnknown(t *testing.T) {
	for _, name := range []string{"nope", "logistic(NaN)", "logistic(+Inf)", "logistic(-Inf)", "logistic(1)junk"} {
		if act, err := ActivationByName(name); err == nil {
			t.Errorf("%q accepted as %#v", name, act)
		}
	}
}
