package nn

import (
	"bytes"
	"testing"
)

// FuzzLoad asserts network deserialization never panics and that anything
// it accepts is a usable network.
func FuzzLoad(f *testing.F) {
	// Seed with a valid network.
	net := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"layers":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"layers":[{"inputs":1,"outputs":1,"activation":"tanh","w":[[1]],"b":[0]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted networks must be evaluable on a zero input.
		x := make([]float64, n.InputDim())
		out := n.Forward(x)
		if len(out) != n.OutputDim() {
			t.Fatal("accepted network produced wrong output arity")
		}
	})
}

// FuzzActivationByName asserts the parser never panics and round-trips
// whatever it accepts.
func FuzzActivationByName(f *testing.F) {
	for _, s := range []string{"tanh", "relu", "identity", "logcompress", "logistic(1)", "logistic(-2.5)", "nope", "",
		"logistic(NaN)", "logistic(+Inf)", "logistic(-Inf)", "logistic(1)junk"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		act, err := ActivationByName(name)
		if err != nil {
			return
		}
		back, err := ActivationByName(act.Name())
		if err != nil {
			t.Fatalf("accepted activation %q does not round trip: %v", name, err)
		}
		if back.Eval(0.5) != act.Eval(0.5) {
			t.Fatalf("round-tripped activation differs for %q", name)
		}
	})
}
