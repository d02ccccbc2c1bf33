package train

import (
	"math"
	"testing"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// numericalGradient perturbs one parameter and measures the loss change.
func numericalGradient(net *nn.Network, x, y []float64, get func() *float64) float64 {
	const h = 1e-6
	p := get()
	orig := *p
	*p = orig + h
	up := sampleLoss(net, x, y)
	*p = orig - h
	down := sampleLoss(net, x, y)
	*p = orig
	return (up - down) / (2 * h)
}

func sampleLoss(net *nn.Network, x, y []float64) float64 {
	pred := net.Forward(x)
	var loss float64
	for j, p := range pred {
		d := p - y[j]
		loss += 0.5 * d * d
	}
	return loss
}

// TestBackpropMatchesNumericalGradient is the keystone correctness test:
// the analytic gradient of every weight and bias in a multi-hidden-layer
// network must match central-difference estimates.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	activations := []nn.Activation{
		nn.Logistic{Alpha: 1},
		nn.Logistic{Alpha: 2.5},
		nn.Tanh{},
		nn.LogCompress{},
	}
	for _, act := range activations {
		src := rng.New(42)
		net := nn.NewNetwork([]int{3, 5, 4, 2}, act, nn.Identity{})
		nn.XavierInit(net, src)
		x := []float64{0.5, -1.2, 0.8}
		y := []float64{0.3, -0.7}
		g := NewGradients(net)
		Backprop(net, x, y, g)

		for li, l := range net.Layers {
			for o := 0; o < l.Outputs; o++ {
				row := l.W.Row(o)
				for i := 0; i < l.Inputs; i++ {
					i := i
					want := numericalGradient(net, x, y, func() *float64 { return &row[i] })
					got := g.DW[li].At(o, i)
					if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
						t.Fatalf("%s: dW[%d][%d][%d] = %v, numeric %v", act.Name(), li, o, i, got, want)
					}
				}
				o := o
				want := numericalGradient(net, x, y, func() *float64 { return &l.B[o] })
				got := g.DB[li][o]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("%s: dB[%d][%d] = %v, numeric %v", act.Name(), li, o, got, want)
				}
			}
		}
	}
}

// TestBackpropBatchMatchesNumericalGradient repeats the keystone check for
// the batched path: the mean gradient over a small batch must match
// central-difference estimates of the mean loss.
func TestBackpropBatchMatchesNumericalGradient(t *testing.T) {
	src := rng.New(43)
	net := nn.NewNetwork([]int{3, 5, 4, 2}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	data := rng.New(17)
	const batch = 6
	X, Y := mat.New(batch, 3), mat.New(batch, 2)
	for i := range X.Data {
		X.Data[i] = data.Uniform(-1, 1)
	}
	for i := range Y.Data {
		Y.Data[i] = data.Uniform(-1, 1)
	}
	xs, ys := make([][]float64, batch), make([][]float64, batch)
	for r := 0; r < batch; r++ {
		xs[r], ys[r] = X.Row(r), Y.Row(r)
	}

	var ws Workspace
	g := NewGradients(net)
	total := BackpropBatch(net, X, Y, 1.0/batch, &ws, g)
	if want := loss(net, xs, ys) * batch; math.Abs(total-want) > 1e-12*(1+want) {
		t.Fatalf("summed loss %v, per-sample total %v", total, want)
	}

	meanLoss := func() float64 { return loss(net, xs, ys) }
	numeric := func(p *float64) float64 {
		const h = 1e-6
		orig := *p
		*p = orig + h
		up := meanLoss()
		*p = orig - h
		down := meanLoss()
		*p = orig
		return (up - down) / (2 * h)
	}
	params := net.Params()
	for i := range params {
		want := numeric(&params[i])
		got := g.Flat[i]
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("flat gradient %d = %v, numeric %v", i, got, want)
		}
	}
}

// TestBackpropBatchMatchesPerSample is the batched-vs-per-sample
// equivalence keystone for the backward pass: accumulating per-sample
// Backprop gradients with the classic AddScaled(1/N) loop must agree with
// one BackpropBatch call to within 1e-12 (the kernels share the rounding
// order, so the match is in fact bit-exact).
func TestBackpropBatchMatchesPerSample(t *testing.T) {
	activations := []nn.Activation{nn.Logistic{Alpha: 1.5}, nn.Tanh{}, nn.LogCompress{}}
	for _, act := range activations {
		src := rng.New(44)
		net := nn.NewNetwork([]int{4, 7, 5, 3}, act, nn.Identity{})
		nn.XavierInit(net, src)
		data := rng.New(23)
		const batch = 41
		X, Y := mat.New(batch, 4), mat.New(batch, 3)
		for i := range X.Data {
			X.Data[i] = data.Uniform(-2, 2)
		}
		for i := range Y.Data {
			Y.Data[i] = data.Uniform(-1, 1)
		}

		// Reference: the pre-refactor epoch loop.
		sample := NewGradients(net)
		ref := NewGradients(net)
		var refLoss float64
		for r := 0; r < batch; r++ {
			refLoss += Backprop(net, X.Row(r), Y.Row(r), sample)
			mat.AXPY(1.0/batch, sample.Flat, ref.Flat)
		}

		var ws Workspace
		got := NewGradients(net)
		gotLoss := BackpropBatch(net, X, Y, 1.0/batch, &ws, got)
		if math.Abs(gotLoss-refLoss) > 1e-12*(1+refLoss) {
			t.Fatalf("%s: batch loss %v, per-sample %v", act.Name(), gotLoss, refLoss)
		}
		for i := range ref.Flat {
			if math.Abs(got.Flat[i]-ref.Flat[i]) > 1e-12*(1+math.Abs(ref.Flat[i])) {
				t.Fatalf("%s: gradient %d: batch %v, per-sample %v",
					act.Name(), i, got.Flat[i], ref.Flat[i])
			}
		}
	}
}

// TestBackpropBatchBitIdenticalToPerSample pins the stronger property the
// trainer's reproducibility depends on: with scale = 1/N the batched path
// reproduces the per-sample accumulation loop bit-for-bit, not just within
// tolerance.
func TestBackpropBatchBitIdenticalToPerSample(t *testing.T) {
	src := rng.New(45)
	net := nn.NewNetwork([]int{4, 9, 2}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, src)
	data := rng.New(29)
	const batch = 30
	X, Y := mat.New(batch, 4), mat.New(batch, 2)
	for i := range X.Data {
		X.Data[i] = data.Uniform(-1.5, 1.5)
	}
	for i := range Y.Data {
		Y.Data[i] = data.Uniform(-1, 1)
	}

	sample := NewGradients(net)
	ref := NewGradients(net)
	for r := 0; r < batch; r++ {
		Backprop(net, X.Row(r), Y.Row(r), sample)
		mat.AXPY(1.0/batch, sample.Flat, ref.Flat)
	}
	var ws Workspace
	got := NewGradients(net)
	BackpropBatch(net, X, Y, 1.0/batch, &ws, got)
	for i := range ref.Flat {
		if got.Flat[i] != ref.Flat[i] {
			t.Fatalf("gradient %d not bit-identical: batch %x, per-sample %x",
				i, math.Float64bits(got.Flat[i]), math.Float64bits(ref.Flat[i]))
		}
	}
}

func TestBackpropBatchZeroAlloc(t *testing.T) {
	src := rng.New(46)
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, src)
	X, Y := mat.New(64, 4), mat.New(64, 5)
	for i := range X.Data {
		X.Data[i] = src.Uniform(-1, 1)
	}
	for i := range Y.Data {
		Y.Data[i] = src.Uniform(-1, 1)
	}
	var ws Workspace
	g := NewGradients(net)
	BackpropBatch(net, X, Y, 1.0/64, &ws, g) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		BackpropBatch(net, X, Y, 1.0/64, &ws, g)
	})
	if allocs != 0 {
		t.Fatalf("steady-state BackpropBatch allocates %v objects/op", allocs)
	}
	LossBatch(net, X, Y, &ws)
	allocs = testing.AllocsPerRun(50, func() {
		LossBatch(net, X, Y, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state LossBatch allocates %v objects/op", allocs)
	}
}

func TestLossBatchMatchesLoss(t *testing.T) {
	src := rng.New(47)
	net := nn.NewNetwork([]int{3, 8, 2}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	const n = 19
	xs, ys := make([][]float64, n), make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{src.Uniform(-1, 1), src.Uniform(-1, 1), src.Uniform(-1, 1)}
		ys[i] = []float64{src.Uniform(-1, 1), src.Uniform(-1, 1)}
	}
	X, Y := new(mat.Matrix).CopyRows(xs), new(mat.Matrix).CopyRows(ys)
	var ws Workspace
	if got, want := LossBatch(net, X, Y, &ws), loss(net, xs, ys); got != want {
		t.Fatalf("LossBatch %v, Loss %v", got, want)
	}
	empty, emptyY := mat.Matrix{Cols: X.Cols}, mat.Matrix{Cols: Y.Cols}
	if LossBatch(net, &empty, &emptyY, &ws) != 0 {
		t.Fatal("empty LossBatch should be 0")
	}
}

func TestBackpropReturnsLoss(t *testing.T) {
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	net.Layers[0].W.Set(0, 0, 2)
	g := NewGradients(net)
	// pred = 2*3 = 6, y = 4 → loss = 0.5*(6-4)^2 = 2.
	loss := Backprop(net, []float64{3}, []float64{4}, g)
	if math.Abs(loss-2) > 1e-12 {
		t.Fatalf("loss %v, want 2", loss)
	}
	// dL/dw = (pred-y)*x = 2*3 = 6; dL/db = 2.
	if math.Abs(g.DW[0].At(0, 0)-6) > 1e-12 || math.Abs(g.DB[0][0]-2) > 1e-12 {
		t.Fatalf("gradients %v / %v", g.DW[0].At(0, 0), g.DB[0][0])
	}
}

func TestBackpropShapePanics(t *testing.T) {
	net := nn.NewNetwork([]int{2, 1}, nn.Identity{}, nn.Identity{})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong target size did not panic")
		}
	}()
	Backprop(net, []float64{1, 2}, []float64{1, 2}, NewGradients(net))
}

func TestGradientsFlatLayoutMatchesParams(t *testing.T) {
	net := nn.NewNetwork([]int{2, 3, 1}, nn.Tanh{}, nn.Identity{})
	g := NewGradients(net)
	if len(g.Flat) != net.NumParams() {
		t.Fatalf("flat gradient length %d, NumParams %d", len(g.Flat), net.NumParams())
	}
	for i := range g.Flat {
		g.Flat[i] = float64(i)
	}
	// Same layout as TestParamsLayout in package nn: layer 0 weights occupy
	// indices 0..5, its biases 6..8, layer 1 weights 9..11, bias 12.
	if g.DW[0].At(0, 1) != 1 || g.DB[0][2] != 8 || g.DW[1].At(0, 0) != 9 || g.DB[1][0] != 12 {
		t.Fatalf("gradient views misaligned with flat layout: %v", g.Flat)
	}
	g.DB[1][0] = -3
	if g.Flat[12] != -3 {
		t.Fatal("gradient views do not alias Flat")
	}
}

func TestGradientsZeroAndAddScaled(t *testing.T) {
	net := nn.NewNetwork([]int{2, 3, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, rng.New(1))
	b := NewGradients(net)
	Backprop(net, []float64{1, -1}, []float64{0.5}, b)
	b.Zero()
	for _, v := range b.Flat {
		if v != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

// loss is the per-row definition LossBatch must match bit for bit: the
// mean over rows of ½‖ŷ−y‖², accumulated in row order.
func loss(net *nn.Network, xs, ys [][]float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var total float64
	for i, x := range xs {
		for j, p := range net.Forward(x) {
			d := p - ys[i][j]
			total += 0.5 * d * d
		}
	}
	return total / float64(len(xs))
}

func TestLossMeanSemantics(t *testing.T) {
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	net.Layers[0].W.Set(0, 0, 1)
	xs := [][]float64{{1}, {2}}
	ys := [][]float64{{0}, {0}}
	// losses: 0.5*1, 0.5*4 → mean 1.25
	if l := loss(net, xs, ys); math.Abs(l-1.25) > 1e-12 {
		t.Fatalf("Loss %v, want 1.25", l)
	}
	if loss(net, nil, nil) != 0 {
		t.Fatal("empty Loss should be 0")
	}
}

func BenchmarkBackprop4x16x5(b *testing.B) {
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, rng.New(1))
	g := NewGradients(net)
	x := []float64{0.1, -0.5, 1.2, 0.7}
	y := []float64{1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Backprop(net, x, y, g)
	}
}

// BenchmarkBackpropBatch4x16x5 processes 64 samples per op through the
// batched kernel; divide ns/op by 64 to compare with the per-sample bench.
func BenchmarkBackpropBatch4x16x5(b *testing.B) {
	src := rng.New(1)
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, src)
	X, Y := mat.New(64, 4), mat.New(64, 5)
	for i := range X.Data {
		X.Data[i] = src.Uniform(-1, 1)
	}
	for i := range Y.Data {
		Y.Data[i] = src.Uniform(-1, 1)
	}
	var ws Workspace
	g := NewGradients(net)
	BackpropBatch(net, X, Y, 1.0/64, &ws, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BackpropBatch(net, X, Y, 1.0/64, &ws, g)
	}
}
