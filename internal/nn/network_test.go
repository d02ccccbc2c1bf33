package nn

import (
	"bytes"
	"math"
	"testing"

	"nnwc/internal/rng"
)

func TestLayerForwardHandChecked(t *testing.T) {
	l := NewNetwork([]int{2, 1}, Identity{}, Identity{}).Layers[0]
	l.W.Set(0, 0, 2)
	l.W.Set(0, 1, -1)
	l.B[0] = 0.5
	out, pre := l.Forward([]float64{3, 4})
	// 2*3 - 1*4 + 0.5 = 2.5
	if out[0] != 2.5 || pre[0] != 2.5 {
		t.Fatalf("forward got %v (pre %v)", out, pre)
	}
}

func TestLayerForwardAppliesActivation(t *testing.T) {
	l := NewNetwork([]int{1, 1}, Identity{}, Logistic{Alpha: 1}).Layers[0]
	l.W.Set(0, 0, 1)
	out, pre := l.Forward([]float64{0})
	if pre[0] != 0 || out[0] != 0.5 {
		t.Fatalf("activation not applied: out %v pre %v", out, pre)
	}
}

func TestLayerShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size did not panic")
		}
	}()
	NewNetwork([]int{2, 1}, Identity{}, Identity{}).Layers[0].Forward([]float64{1})
}

func TestNewNetworkTopology(t *testing.T) {
	n := NewNetwork([]int{4, 8, 3, 5}, Tanh{}, Identity{})
	if len(n.Layers) != 3 {
		t.Fatalf("%d layers", len(n.Layers))
	}
	if n.InputDim() != 4 || n.OutputDim() != 5 {
		t.Fatalf("dims %d→%d", n.InputDim(), n.OutputDim())
	}
	// Hidden layers use the hidden activation; output layer the output one.
	if n.Layers[0].Act.Name() != "tanh" || n.Layers[2].Act.Name() != "identity" {
		t.Fatal("activations assigned wrong")
	}
	sizes := n.Sizes()
	want := []int{4, 8, 3, 5}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes %v", sizes)
		}
	}
}

func TestNumParams(t *testing.T) {
	n := NewNetwork([]int{4, 16, 5}, Tanh{}, Identity{})
	// 4*16+16 + 16*5+5 = 80+16+85 = 165
	if n.NumParams() != 165 {
		t.Fatalf("NumParams %d", n.NumParams())
	}
}

func TestForwardTraceConsistent(t *testing.T) {
	src := rng.New(5)
	n := NewNetwork([]int{3, 7, 2}, Tanh{}, Identity{})
	XavierInit(n, src)
	x := []float64{0.3, -1, 2}
	acts, pres := n.ForwardTrace(x)
	if len(acts) != 3 || len(pres) != 2 {
		t.Fatalf("trace lengths %d/%d", len(acts), len(pres))
	}
	direct := n.Forward(x)
	for j := range direct {
		if direct[j] != acts[2][j] {
			t.Fatal("Forward and ForwardTrace disagree")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	src := rng.New(6)
	n := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	XavierInit(n, src)
	c := n.Clone()
	before := n.Forward([]float64{1, 1})[0]
	c.Layers[0].W.Set(0, 0, 99)
	after := n.Forward([]float64{1, 1})[0]
	if before != after {
		t.Fatal("Clone shares weights")
	}
	if c.Forward([]float64{1, 1})[0] == before {
		t.Fatal("mutating the clone had no effect on it")
	}
}

func TestXavierInitZeroBiases(t *testing.T) {
	n := NewNetwork([]int{3, 5, 2}, Tanh{}, Identity{})
	XavierInit(n, rng.New(9))
	for _, l := range n.Layers {
		for _, b := range l.B {
			if b != 0 {
				t.Fatal("Xavier biases should start at zero")
			}
		}
		// Weights non-trivial.
		var sum float64
		for _, w := range l.W.Data {
			sum += math.Abs(w)
		}
		if sum == 0 {
			t.Fatal("Xavier left weights at zero")
		}
	}
}

func TestInitDeterministic(t *testing.T) {
	a := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	b := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	XavierInit(a, rng.New(42))
	XavierInit(b, rng.New(42))
	x := []float64{0.1, 0.9}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Fatal("same seed produced different networks")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := rng.New(10)
	n := NewNetwork([]int{4, 6, 3}, Logistic{Alpha: 2}, Identity{})
	XavierInit(n, src)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, -0.7, 1.5, 0}
	a, b := n.Forward(x), back.Forward(x)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("loaded network predicts differently")
		}
	}
	// Activation (with slope) restored.
	if back.Layers[0].Act.Name() != "logistic(2)" {
		t.Fatalf("activation lost: %s", back.Layers[0].Act.Name())
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{"layers":[]}`,
		`{"layers":[{"inputs":2,"outputs":1,"activation":"nope","w":[[1,2]],"b":[0]}]}`,
		`{"layers":[{"inputs":0,"outputs":1,"activation":"tanh","w":[],"b":[]}]}`,
		`{"layers":[{"inputs":2,"outputs":1,"activation":"tanh","w":[[1]],"b":[0]}]}`,
		`{"layers":[{"inputs":2,"outputs":2,"activation":"tanh","w":[[1,2],[3,4]],"b":[0,0]},{"inputs":3,"outputs":1,"activation":"identity","w":[[1,2,3]],"b":[0]}]}`,
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: corrupt network accepted", i)
		}
	}
}

func BenchmarkForward4x16x5(b *testing.B) {
	n := NewNetwork([]int{4, 16, 5}, Logistic{Alpha: 1}, Identity{})
	XavierInit(n, rng.New(1))
	x := []float64{0.1, -0.5, 1.2, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	src := rng.New(7)
	a := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	b := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	XavierInit(a, src)
	XavierInit(b, src)
	copyWeightsFrom(b, a)
	x := []float64{0.5, -0.5}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Fatal("CopyWeightsFrom did not copy")
	}
}

func TestCopyWeightsTopologyPanics(t *testing.T) {
	a := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	b := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched topology did not panic")
		}
	}()
	copyWeightsFrom(b, a)
}

func TestUniformInitBounds(t *testing.T) {
	n := NewNetwork([]int{3, 5, 2}, Tanh{}, Identity{})
	uniformInit(n, rng.New(8), 0.25)
	for _, l := range n.Layers {
		for _, w := range l.W.Data {
			if math.Abs(w) > 0.25 {
				t.Fatalf("weight %v outside scale", w)
			}
		}
	}
}

// copyWeightsFrom overwrites n's parameters with src's. The topologies
// must match.
func copyWeightsFrom(n, src *Network) {
	if len(n.Layers) != len(src.Layers) {
		panic("nn: topology mismatch in copyWeightsFrom")
	}
	for i, l := range n.Layers {
		sl := src.Layers[i]
		if l.Inputs != sl.Inputs || l.Outputs != sl.Outputs {
			panic("nn: layer shape mismatch in copyWeightsFrom")
		}
	}
	copy(n.params, src.params)
}

// uniformInit draws every weight and bias of n uniformly from [−s, s],
// in parameter order.
func uniformInit(n *Network, src *rng.Source, s float64) {
	for i, p := 0, n.Params(); i < len(p); i++ {
		p[i] = src.Uniform(-s, s)
	}
}
