package train

import (
	"math"
	"runtime"
	"testing"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// newTrainer returns a zero Trainer Reset to cfg and src.
func newTrainer(cfg Config, src *rng.Source) (*Trainer, error) {
	tr := &Trainer{}
	return tr, tr.Reset(cfg, src)
}

// fitRows stages (xs, ys), and the validation rows when given, in tr's
// matrices and trains net on them.
func fitRows(tr *Trainer, net *nn.Network, xs, ys, vx, vy [][]float64) (Result, error) {
	tr.X.CopyRows(xs)
	tr.Y.CopyRows(ys)
	if len(vx) > 0 {
		tr.VX.CopyRows(vx)
		tr.VY.CopyRows(vy)
	}
	return tr.FitStaged(net, len(vx) > 0)
}

// uniformInit draws every weight and bias of net uniformly from [−s, s],
// in parameter order.
func uniformInit(net *nn.Network, src *rng.Source, s float64) {
	for i, p := 0, net.Params(); i < len(p); i++ {
		p[i] = src.Uniform(-s, s)
	}
}

// xorData is the classic non-linearly-separable problem; solving it proves
// the hidden layer is actually learning.
func xorData() (xs, ys [][]float64) {
	xs = [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys = [][]float64{{0}, {1}, {1}, {0}}
	return xs, ys
}

func TestRPROPSolvesXOR(t *testing.T) {
	src := rng.New(3)
	net := nn.NewNetwork([]int{2, 6, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 3000, TargetLoss: 1e-5}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := xorData()
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopThreshold {
		t.Fatalf("XOR did not converge: %+v", res)
	}
	for i, x := range xs {
		pred := net.Forward(x)[0]
		if math.Abs(pred-ys[i][0]) > 0.1 {
			t.Fatalf("XOR(%v) = %v, want %v", x, pred, ys[i][0])
		}
	}
}

func TestOnlineSGDLearnsLinear(t *testing.T) {
	// y = 2x − 1 learned by a linear "network".
	src := rng.New(4)
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	uniformInit(net, src, 0.1)
	var xs, ys [][]float64
	for x := -1.0; x <= 1; x += 0.1 {
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2*x - 1})
	}
	tr, err := newTrainer(Config{Optimizer: &SGD{LR: 0.05}, Mode: Online, MaxEpochs: 500, TargetLoss: 1e-8}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss > 1e-6 {
		t.Fatalf("linear fit did not converge: loss %v", res.FinalLoss)
	}
	if w := net.Layers[0].W.At(0, 0); math.Abs(w-2) > 0.01 {
		t.Fatalf("learned slope %v, want 2", w)
	}
	if b := net.Layers[0].B[0]; math.Abs(b+1) > 0.01 {
		t.Fatalf("learned bias %v, want -1", b)
	}
}

func TestMomentumConvergesFasterThanSGD(t *testing.T) {
	// Same problem, same epochs: momentum should reach a loss at least as
	// low as plain SGD with the same LR.
	losses := map[string]float64{}
	for name, opt := range map[string]Optimizer{
		"sgd":      &SGD{LR: 0.01},
		"momentum": &Momentum{LR: 0.01, Mu: 0.9},
	} {
		src := rng.New(5)
		net := nn.NewNetwork([]int{1, 4, 1}, nn.Tanh{}, nn.Identity{})
		nn.XavierInit(net, src)
		var xs, ys [][]float64
		for x := -1.0; x <= 1; x += 0.2 {
			xs = append(xs, []float64{x})
			ys = append(ys, []float64{x * x})
		}
		tr, err := newTrainer(Config{Optimizer: opt, Mode: Batch, MaxEpochs: 300}, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		res, err := fitRows(tr, net, xs, ys, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		losses[name] = res.FinalLoss
	}
	if losses["momentum"] > losses["sgd"]*1.5 {
		t.Fatalf("momentum (%v) much worse than sgd (%v)", losses["momentum"], losses["sgd"])
	}
}

func TestAdamLearns(t *testing.T) {
	src := rng.New(6)
	net := nn.NewNetwork([]int{1, 6, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	var xs, ys [][]float64
	for x := -1.0; x <= 1; x += 0.1 {
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{math.Sin(2 * x)})
	}
	tr, err := newTrainer(Config{Optimizer: NewAdam(0.01), Mode: Batch, MaxEpochs: 2000, TargetLoss: 1e-5}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss > 1e-3 {
		t.Fatalf("Adam failed to fit sin: loss %v", res.FinalLoss)
	}
}

func TestStopThreshold(t *testing.T) {
	src := rng.New(7)
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	uniformInit(net, src, 0.1)
	xs := [][]float64{{1}, {2}}
	ys := [][]float64{{1}, {2}}
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 10000, TargetLoss: 0.01}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopThreshold {
		t.Fatalf("stop reason %s", res.Reason)
	}
	if res.FinalLoss > 0.01 {
		t.Fatalf("stopped above threshold: %v", res.FinalLoss)
	}
	// The loose threshold should stop well before the epoch budget.
	if res.Epochs >= 10000 {
		t.Fatal("threshold never triggered")
	}
}

func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	// Validation set from a different function than training: validation
	// loss will bottom out and rise; early stopping must fire and restore
	// the best weights.
	src := rng.New(8)
	net := nn.NewNetwork([]int{1, 12, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	var xs, ys, vx, vy [][]float64
	noise := rng.New(99)
	for x := -1.0; x <= 1; x += 0.15 {
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{x*x + (0 + 0.15*noise.Norm())})
		vx = append(vx, []float64{x + 0.07})
		vy = append(vy, []float64{(x + 0.07) * (x + 0.07)})
	}
	tr, err := newTrainer(Config{
		Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 5000,
		Patience: 50, MinDelta: 1e-7,
	}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, vx, vy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopEarly && res.Reason != StopMaxEpochs {
		t.Fatalf("unexpected stop reason %s", res.Reason)
	}
	// The reported validation loss must match the restored network.
	got := loss(net, vx, vy)
	if math.Abs(got-res.ValLoss) > 1e-9 {
		t.Fatalf("restored network val loss %v != reported %v", got, res.ValLoss)
	}
}

func TestDivergenceDetected(t *testing.T) {
	src := rng.New(9)
	net := nn.NewNetwork([]int{1, 4, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	xs := [][]float64{{1}, {2}, {3}}
	ys := [][]float64{{1}, {4}, {9}}
	// Absurd learning rate guarantees explosion.
	tr, err := newTrainer(Config{Optimizer: &SGD{LR: 1e6}, Mode: Batch, MaxEpochs: 100}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopDiverged {
		t.Fatalf("divergence not detected: %s (loss %v)", res.Reason, res.FinalLoss)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := newTrainer(Config{Mode: Batch, MaxEpochs: 10}, nil); err == nil {
		t.Fatal("missing optimizer accepted")
	}
	if _, err := newTrainer(Config{Optimizer: &SGD{LR: 0.1}, MaxEpochs: 0}, nil); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Online, MaxEpochs: 10}, nil); err == nil {
		t.Fatal("RPROP in online mode accepted")
	}
}

func TestFitValidatesShapes(t *testing.T) {
	src := rng.New(10)
	net := nn.NewNetwork([]int{2, 1}, nn.Identity{}, nn.Identity{})
	tr, err := newTrainer(Config{Optimizer: &SGD{LR: 0.1}, Mode: Batch, MaxEpochs: 5}, src)
	if err != nil {
		t.Fatal(err)
	}
	shape := func(s [2]int) mat.Matrix {
		return mat.Matrix{Rows: s[0], Cols: s[1], Data: make([]float64, s[0]*s[1])}
	}
	stage := func(x, y, vx, vy [2]int) {
		tr.X, tr.Y, tr.VX, tr.VY = shape(x), shape(y), shape(vx), shape(vy)
	}
	stage([2]int{0, 2}, [2]int{0, 1}, [2]int{}, [2]int{})
	if _, err := tr.FitStaged(net, false); err == nil {
		t.Fatal("empty training set accepted")
	}
	stage([2]int{1, 1}, [2]int{1, 1}, [2]int{}, [2]int{})
	if _, err := tr.FitStaged(net, false); err == nil {
		t.Fatal("wrong input dim accepted")
	}
	stage([2]int{1, 2}, [2]int{1, 2}, [2]int{}, [2]int{})
	if _, err := tr.FitStaged(net, false); err == nil {
		t.Fatal("wrong output dim accepted")
	}
	stage([2]int{1, 2}, [2]int{1, 1}, [2]int{1, 2}, [2]int{0, 1})
	if _, err := tr.FitStaged(net, true); err == nil {
		t.Fatal("mismatched validation rows accepted")
	}
}

func TestOptimizerNamesAndReset(t *testing.T) {
	opts := []Optimizer{&SGD{LR: 0.1}, &Momentum{LR: 0.1, Mu: 0.9}, NewRPROP(), NewAdam(0.001)}
	names := map[string]bool{}
	for _, o := range opts {
		if o.Name() == "" {
			t.Fatal("empty optimizer name")
		}
		names[o.Name()] = true
		o.Reset() // must not panic before first Step
	}
	if len(names) != 4 {
		t.Fatal("duplicate optimizer names")
	}
}

func TestRPROPResetClearsState(t *testing.T) {
	src := rng.New(12)
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	uniformInit(net, src, 0.1)
	g := NewGradients(net)
	Backprop(net, []float64{1}, []float64{2}, g)
	r := NewRPROP()
	r.Step(net, g)
	r.Reset()
	if r.step != nil || r.prev != nil {
		t.Fatal("Reset left state")
	}
}

func TestModeString(t *testing.T) {
	if Batch.String() != "batch" || Online.String() != "online" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func BenchmarkEpochRPROP(b *testing.B) {
	src := rng.New(1)
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, src)
	var xs, ys [][]float64
	for i := 0; i < 300; i++ {
		x := []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
		xs = append(xs, x)
		ys = append(ys, []float64{x[0], x[1] * x[2], x[3], x[0] + x[1], x[2]})
	}
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := newTrainer(cfg, rng.New(2))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fitRows(tr, net, xs, ys, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldEpoch fits the shape of one Table 2 fold: a 4-16-5
// logistic MLP on 259 rows, full-batch RPROP for 100 epochs (ns/op / 100
// is one epoch).
func BenchmarkFoldEpoch(b *testing.B) {
	src := rng.New(1)
	xs, ys := make([][]float64, 259), make([][]float64, 259)
	for i := range xs {
		x := []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
		xs[i], ys[i] = x, []float64{x[0], x[1] * x[2], x[3], x[0] + x[1], x[2]}
	}
	cfg := DefaultConfig()
	cfg.MaxEpochs, cfg.TargetLoss = 100, 0
	for i := 0; i < b.N; i++ {
		net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
		nn.XavierInit(net, rng.New(2))
		tr, err := newTrainer(cfg, rng.New(3))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fitRows(tr, net, xs, ys, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	norm := func(net *nn.Network) float64 {
		var s float64
		for _, l := range net.Layers {
			for _, w := range l.W.Data {
				s += w * w
			}
		}
		return s
	}
	run := func(decay float64) float64 {
		src := rng.New(80)
		net := nn.NewNetwork([]int{1, 16, 1}, nn.Tanh{}, nn.Identity{})
		nn.XavierInit(net, src)
		noise := rng.New(81)
		var xs, ys [][]float64
		for i := 0; i < 40; i++ {
			x := noise.Uniform(-1, 1)
			xs = append(xs, []float64{x})
			ys = append(ys, []float64{x + (0 + 0.3*noise.Norm())})
		}
		tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 400, WeightDecay: decay}, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fitRows(tr, net, xs, ys, nil, nil); err != nil {
			t.Fatal(err)
		}
		return norm(net)
	}
	plain := run(0)
	decayed := run(0.01)
	if decayed >= plain {
		t.Fatalf("weight decay did not shrink weights: %v vs %v", decayed, plain)
	}
}

func TestWeightDecayZeroIsNoop(t *testing.T) {
	src := rng.New(82)
	net := nn.NewNetwork([]int{1, 2, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit(net, src)
	g := NewGradients(net)
	Backprop(net, []float64{1}, []float64{0.5}, g)
	before := g.DW[0].At(0, 0)
	applyWeightDecay(net, g, 0)
	if g.DW[0].At(0, 0) != before {
		t.Fatal("decay 0 modified the gradient")
	}
}

// TestFitStagedBytesIndependentOfMaxEpochs pins that a warmed fit's
// allocation does not scale with the epoch budget: a fit that stops at
// epoch 1 allocates the same bytes whether MaxEpochs is 10 or 1e6.
// MaxEpochs comes from -epochs and dist specs, which have no upper bound.
func TestFitStagedBytesIndependentOfMaxEpochs(t *testing.T) {
	xs, ys := xorData()
	bytesPerFit := func(maxEpochs int) uint64 {
		// The loss threshold is above any XOR loss, so every fit stops at
		// epoch 1.
		cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: maxEpochs, TargetLoss: 1e9}
		net := nn.NewNetwork([]int{2, 4, 1}, nn.Logistic{Alpha: 1}, nn.Identity{})
		tr := &Trainer{}
		tr.X.CopyRows(xs)
		tr.Y.CopyRows(ys)
		fit := func() {
			if err := tr.Reset(cfg, rng.New(1)); err != nil {
				t.Fatal(err)
			}
			res, err := tr.FitStaged(net, false)
			if err != nil || res.Epochs != 1 {
				t.Fatalf("fit: %v after %d epochs, want a stop at epoch 1", err, res.Epochs)
			}
		}
		fit()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fit()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesPerFit(10), bytesPerFit(1_000_000)
	if large > small+256 {
		t.Fatalf("a warmed 1-epoch fit allocates %d B at MaxEpochs 1e6, %d B at 10", large, small)
	}
}
