package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nnwc/internal/mat"
	"nnwc/internal/rng"
)

// TestForwardBatchMatchesPerSample is the batched-vs-per-sample equivalence
// keystone: every row of ForwardBatch must match Forward on that row to
// within 1e-12 (in fact the kernels accumulate in the same order, so the
// match is exact).
func TestForwardBatchMatchesPerSample(t *testing.T) {
	activations := []Activation{Logistic{Alpha: 1}, Tanh{}, LogCompress{}}
	for _, act := range activations {
		src := rng.New(31)
		net := NewNetwork([]int{4, 9, 6, 3}, act, Identity{})
		XavierInit(net, src)

		data := rng.New(7)
		const batch = 37
		X := mat.New(batch, 4)
		for i := range X.Data {
			X.Data[i] = data.Uniform(-2, 2)
		}
		var ws BatchWorkspace
		out := net.ForwardBatch(X, &ws)
		for r := 0; r < batch; r++ {
			want := net.Forward(X.Row(r))
			for j := range want {
				if math.Abs(out.At(r, j)-want[j]) > 1e-12 {
					t.Fatalf("%s: row %d output %d: batch %v, per-sample %v",
						act.Name(), r, j, out.At(r, j), want[j])
				}
			}
		}
	}
}

func TestForwardTraceBatchMatchesPerSample(t *testing.T) {
	src := rng.New(32)
	net := NewNetwork([]int{3, 5, 2}, Tanh{}, Identity{})
	XavierInit(net, src)
	X := new(mat.Matrix).CopyRows([][]float64{{0.1, -0.5, 2}, {1, 1, 1}, {-3, 0.2, 0.9}})
	var ws BatchWorkspace
	acts, pres := net.ForwardTraceBatch(X, &ws)
	if len(acts) != len(net.Layers)+1 || len(pres) != len(net.Layers) {
		t.Fatalf("trace lengths %d/%d", len(acts), len(pres))
	}
	for r := 0; r < X.Rows; r++ {
		sActs, sPres := net.ForwardTrace(X.Row(r))
		for li := range net.Layers {
			for j := range sPres[li] {
				if acts[li+1].At(r, j) != sActs[li+1][j] {
					t.Fatalf("acts[%d] row %d col %d differ", li+1, r, j)
				}
				if pres[li].At(r, j) != sPres[li][j] {
					t.Fatalf("pres[%d] row %d col %d differ", li, r, j)
				}
			}
		}
	}
}

// TestForwardBatchReusesWorkspace asserts steady-state batched evaluation
// does not allocate.
func TestForwardBatchReusesWorkspace(t *testing.T) {
	src := rng.New(33)
	net := NewNetwork([]int{4, 16, 5}, Logistic{Alpha: 1}, Identity{})
	XavierInit(net, src)
	X := mat.New(64, 4)
	for i := range X.Data {
		X.Data[i] = src.Uniform(-1, 1)
	}
	var ws BatchWorkspace
	net.ForwardBatch(X, &ws) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		net.ForwardBatch(X, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocates %v objects/op", allocs)
	}
}

// TestForwardBatchMixedDepthsZeroAlloc alternates a 4-16-5 and a 4-24-24-5
// network on one workspace, as a pooled serve workspace sees on a fleet of
// mixed depths: once both have run, neither allocates, and each still
// matches its per-sample forward pass.
func TestForwardBatchMixedDepthsZeroAlloc(t *testing.T) {
	src := rng.New(35)
	shallow := NewNetwork([]int{4, 16, 5}, Logistic{Alpha: 1}, Identity{})
	deep := NewNetwork([]int{4, 24, 24, 5}, Logistic{Alpha: 1}, Identity{})
	XavierInit(shallow, src)
	XavierInit(deep, src)
	X := mat.New(8, 4)
	for i := range X.Data {
		X.Data[i] = src.Uniform(-1, 1)
	}
	var ws BatchWorkspace
	pair := func() {
		shallow.ForwardBatch(X, &ws)
		deep.ForwardBatch(X, &ws)
	}
	pair() // warm the buffers
	if allocs := testing.AllocsPerRun(50, pair); allocs != 0 {
		t.Fatalf("alternating depths on one workspace allocates %v objects per pair", allocs)
	}
	for _, net := range []*Network{shallow, deep, shallow} {
		acts, pres := net.ForwardTraceBatch(X, &ws)
		if len(acts) != len(net.Layers)+1 || len(pres) != len(net.Layers) {
			t.Fatalf("%d-layer trace lengths %d/%d", len(net.Layers), len(acts), len(pres))
		}
		out := acts[len(acts)-1]
		for r := 0; r < X.Rows; r++ {
			for j, want := range net.Forward(X.Row(r)) {
				if out.At(r, j) != want {
					t.Fatalf("%d-layer row %d output %d: batch %v, per-sample %v", len(net.Layers), r, j, out.At(r, j), want)
				}
			}
		}
	}
}

func TestForwardBatchGrowsWithBatchSize(t *testing.T) {
	src := rng.New(34)
	net := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	XavierInit(net, src)
	var ws BatchWorkspace
	for _, batch := range []int{1, 8, 3, 20} {
		X := mat.New(batch, 2)
		for i := range X.Data {
			X.Data[i] = src.Uniform(-1, 1)
		}
		out := net.ForwardBatch(X, &ws)
		if out.Rows != batch || out.Cols != 1 {
			t.Fatalf("batch %d: output shape %dx%d", batch, out.Rows, out.Cols)
		}
		for r := 0; r < batch; r++ {
			if out.At(r, 0) != net.Forward(X.Row(r))[0] {
				t.Fatalf("batch %d row %d mismatch after workspace resize", batch, r)
			}
		}
	}
}

func TestForwardBatchShapePanics(t *testing.T) {
	net := NewNetwork([]int{3, 2}, Identity{}, Identity{})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong batch width did not panic")
		}
	}()
	net.ForwardBatch(mat.New(4, 2), &BatchWorkspace{})
}

// TestParamsLayout pins the flat-parameter memory layout: per layer, weights
// row-major then biases, layers concatenated in order.
func TestParamsLayout(t *testing.T) {
	net := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	p := net.Params()
	if len(p) != net.NumParams() {
		t.Fatalf("Params length %d, NumParams %d", len(p), net.NumParams())
	}
	// Write through the flat vector, observe through the layer views.
	for i := range p {
		p[i] = float64(i)
	}
	l0, l1 := net.Layers[0], net.Layers[1]
	if l0.W.At(0, 0) != 0 || l0.W.At(0, 1) != 1 || l0.W.At(2, 1) != 5 {
		t.Fatalf("layer 0 weights not row-major over flat params: %v", l0.W.Data)
	}
	if l0.B[0] != 6 || l0.B[2] != 8 {
		t.Fatalf("layer 0 biases misplaced: %v", l0.B)
	}
	if l1.W.At(0, 0) != 9 || l1.B[0] != 12 {
		t.Fatalf("layer 1 block misplaced: W %v B %v", l1.W.Data, l1.B)
	}
	// And the reverse direction: writes through views show up flat.
	l1.B[0] = -1
	if p[12] != -1 {
		t.Fatal("layer views do not alias the flat vector")
	}
}

func TestSetParams(t *testing.T) {
	net := NewNetwork([]int{1, 2, 1}, Tanh{}, Identity{})
	vals := make([]float64, net.NumParams())
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	net.SetParams(vals)
	for i, v := range net.Params() {
		if v != vals[i] {
			t.Fatal("SetParams did not copy")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong length did not panic")
		}
	}()
	net.SetParams([]float64{1})
}

func BenchmarkForwardBatch64x4x16x5(b *testing.B) {
	src := rng.New(1)
	net := NewNetwork([]int{4, 16, 5}, Logistic{Alpha: 1}, Identity{})
	XavierInit(net, src)
	X := mat.New(64, 4)
	for i := range X.Data {
		X.Data[i] = src.Uniform(-1, 1)
	}
	var ws BatchWorkspace
	net.ForwardBatch(X, &ws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(X, &ws)
	}
}

// BenchmarkForwardBatchRows times a batched forward pass over perfbench's
// three served shapes at the row counts a request batch spans. The 1-row
// case runs below MulTransBiasInto's AVX row gate, 4 at it, 16 and 64
// above it (DESIGN.md §13).
func BenchmarkForwardBatchRows(b *testing.B) {
	for _, sizes := range [][]int{{4, 16, 5}, {4, 8, 5}, {4, 24, 24, 5}} {
		src := rng.New(1)
		net := NewNetwork(sizes, Logistic{Alpha: 1}, Identity{})
		XavierInit(net, src)
		for _, rows := range []int{1, 4, 16, 64} {
			X := mat.New(rows, sizes[0])
			for i := range X.Data {
				X.Data[i] = src.Uniform(-1, 1)
			}
			shape := strings.ReplaceAll(strings.Trim(fmt.Sprint(sizes), "[]"), " ", "-")
			b.Run(fmt.Sprintf("%s/rows=%d", shape, rows), func(b *testing.B) {
				var ws BatchWorkspace
				net.ForwardBatch(X, &ws)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.ForwardBatch(X, &ws)
				}
			})
		}
	}
}
