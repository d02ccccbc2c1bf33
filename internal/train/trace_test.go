package train

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nnwc/internal/nn"
	"nnwc/internal/obs"
	"nnwc/internal/obs/obstest"
	"nnwc/internal/rng"
)

// lastHistoryEpoch asserts the trailing history point records the epoch
// training actually stopped on.
func lastHistoryEpoch(t *testing.T, res Result) {
	t.Helper()
	if len(res.History) == 0 {
		t.Fatalf("no history recorded (reason %s, epochs %d)", res.Reason, res.Epochs)
	}
	last := res.History[len(res.History)-1]
	if last.Epoch != res.Epochs {
		t.Fatalf("last history point is epoch %d, but training stopped at %d (%s)",
			last.Epoch, res.Epochs, res.Reason)
	}
}

func TestRecordEveryIncludesThresholdStop(t *testing.T) {
	// A huge cadence plus a loose threshold: the stop epoch will not be a
	// cadence multiple, yet it must still be recorded.
	src := rng.New(7)
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	uniformInit(net, src, 0.1)
	xs := [][]float64{{1}, {2}}
	ys := [][]float64{{1}, {2}}
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 10000,
		TargetLoss: 0.01, RecordEvery: 100000}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopThreshold {
		t.Fatalf("expected threshold stop, got %s", res.Reason)
	}
	lastHistoryEpoch(t, res)
	if res.History[len(res.History)-1].TrainLoss != res.FinalLoss {
		t.Fatal("stop-epoch history point does not carry the final loss")
	}
}

func TestRecordEveryIncludesDivergence(t *testing.T) {
	src := rng.New(9)
	net := nn.NewNetwork([]int{1, 4, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit{}.Init(net, src)
	xs := [][]float64{{1}, {2}, {3}}
	ys := [][]float64{{1}, {4}, {9}}
	tr, err := newTrainer(Config{Optimizer: &SGD{LR: 1e6}, Mode: Batch, MaxEpochs: 100,
		RecordEvery: 1000}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopDiverged {
		t.Fatalf("expected divergence, got %s", res.Reason)
	}
	lastHistoryEpoch(t, res)
}

func TestRecordEveryIncludesEarlyStop(t *testing.T) {
	src := rng.New(8)
	net := nn.NewNetwork([]int{1, 12, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit{}.Init(net, src)
	var xs, ys, vx, vy [][]float64
	noise := rng.New(99)
	for x := -1.0; x <= 1; x += 0.15 {
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{x*x + (0 + 0.15*noise.Norm())})
		vx = append(vx, []float64{x + 0.07})
		vy = append(vy, []float64{(x + 0.07) * (x + 0.07)})
	}
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 5000,
		Patience: 50, MinDelta: 1e-7, RecordEvery: 999999}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, vx, vy)
	if err != nil {
		t.Fatal(err)
	}
	lastHistoryEpoch(t, res)
}

func TestRecordEveryIncludesMaxEpochs(t *testing.T) {
	// 50 epochs at cadence 7: epoch 50 is off-cadence but is the stop epoch.
	src := rng.New(11)
	net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
	uniformInit(net, src, 0.1)
	xs := [][]float64{{1}, {2}}
	ys := [][]float64{{2}, {4}}
	tr, err := newTrainer(Config{Optimizer: &SGD{LR: 0.01}, Mode: Batch, MaxEpochs: 50,
		RecordEvery: 7}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxEpochs {
		t.Fatalf("expected max-epochs stop, got %s", res.Reason)
	}
	// Cadence points 7,14,...,49 plus the stop epoch 50.
	if len(res.History) != 8 {
		t.Fatalf("history points %d, want 8", len(res.History))
	}
	lastHistoryEpoch(t, res)
}

// fitTwice runs the same seeded fit with and without tracing and returns
// both nets plus the traced run's JSONL.
func fitTwice(t *testing.T, cfg Config) (plain, traced *nn.Network, trace []byte, plainRes, tracedRes Result) {
	t.Helper()
	build := func() (*nn.Network, *Trainer) {
		src := rng.New(21)
		net := nn.NewNetwork([]int{2, 6, 1}, nn.Tanh{}, nn.Identity{})
		nn.XavierInit{}.Init(net, src)
		tr, err := newTrainer(cfg, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		return net, tr
	}
	xs, ys := xorData()

	plain, trPlain := build()
	var err error
	plainRes, err = fitRows(trPlain, plain, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tcfg := cfg
	tcfg.Trace = obs.NewTrace(obs.NewWriterSink(&buf))
	traced2, trTraced := build()
	trTraced.cfg.Trace = tcfg.Trace
	tracedRes, err = fitRows(trTraced, traced2, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plain, traced2, buf.Bytes(), plainRes, tracedRes
}

func TestTracingDoesNotPerturbTraining(t *testing.T) {
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 200, RecordEvery: 10}
	plain, traced, _, plainRes, tracedRes := fitTwice(t, cfg)
	if plainRes.Epochs != tracedRes.Epochs || plainRes.FinalLoss != tracedRes.FinalLoss {
		t.Fatalf("results differ with tracing on: %+v vs %+v", plainRes, tracedRes)
	}
	pa, pb := plain.Params(), traced.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("param %d differs bitwise: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestTraceEventStream(t *testing.T) {
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 40, RecordEvery: 10}
	_, _, trace, _, res := fitTwice(t, cfg)
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if !strings.Contains(lines[0], `"ev":"fit_start"`) {
		t.Fatalf("first event is not fit_start: %s", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"ev":"fit_end"`) || !strings.Contains(last, `"stop_reason":"`+string(res.Reason)+`"`) {
		t.Fatalf("last event is not a fit_end with the stop reason: %s", last)
	}
	epochs := 0
	for _, l := range lines {
		if strings.Contains(l, `"ev":"epoch"`) {
			epochs++
			for _, key := range []string{`"train_loss":`, `"weight_norm":`, `"grad_norm":`, `"step_norm":`} {
				if !strings.Contains(l, key) {
					t.Fatalf("epoch event missing %s: %s", key, l)
				}
			}
		}
	}
	if epochs != len(res.History) {
		t.Fatalf("trace has %d epoch events, history has %d points", epochs, len(res.History))
	}
}

func TestTraceIsDeterministic(t *testing.T) {
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 60, RecordEvery: 5}
	_, _, a, _, _ := fitTwice(t, cfg)
	_, _, b, _, _ := fitTwice(t, cfg)
	ca, err := obstest.CanonicalizeJSONL(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := obstest.CanonicalizeJSONL(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatal("identical seeded runs produced different canonical traces")
	}
}

func TestBatchEpochZeroAlloc(t *testing.T) {
	// With tracing disabled, one batch epoch must not allocate: this pins
	// the observability layer's zero-cost-when-off guarantee on the hot
	// loop.
	src := rng.New(30)
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit{}.Init(net, src)
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		x := []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
		xs = append(xs, x)
		ys = append(ys, []float64{x[0], x[1], x[2], x[3], x[0] + x[1]})
	}
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 1}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	// One full Fit warms every buffer (matrices, workspaces, optimizer
	// state); afterwards the steady-state epoch is allocation-free.
	if _, err := fitRows(tr, net, xs, ys, nil, nil); err != nil {
		t.Fatal(err)
	}
	g := NewGradients(net)
	n := len(xs)
	invN := 1 / float64(n)
	tr.batchEpoch(net, g, n, invN)
	allocs := testing.AllocsPerRun(50, func() {
		tr.batchEpoch(net, g, n, invN)
	})
	if allocs != 0 {
		t.Fatalf("batch epoch allocated %.1f times per run with tracing disabled, want 0", allocs)
	}
}

func TestOnlineModeTraces(t *testing.T) {
	// Online mode has no batch gradient; epoch events must still emit
	// (without grad/step norms) and training must stay deterministic.
	run := func(trace *obs.Trace) (Result, *nn.Network) {
		src := rng.New(40)
		net := nn.NewNetwork([]int{1, 1}, nn.Identity{}, nn.Identity{})
		uniformInit(net, src, 0.1)
		var xs, ys [][]float64
		for x := -1.0; x <= 1; x += 0.25 {
			xs = append(xs, []float64{x})
			ys = append(ys, []float64{2 * x})
		}
		tr, err := newTrainer(Config{Optimizer: &SGD{LR: 0.05}, Mode: Online, MaxEpochs: 30,
			RecordEvery: 4, Trace: trace}, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		res, err := fitRows(tr, net, xs, ys, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, net
	}
	var buf bytes.Buffer
	resT, netT := run(obs.NewTrace(obs.NewWriterSink(&buf)))
	resP, netP := run(nil)
	if resT.FinalLoss != resP.FinalLoss || math.IsNaN(resT.FinalLoss) {
		t.Fatalf("online tracing perturbed the fit: %v vs %v", resT.FinalLoss, resP.FinalLoss)
	}
	if netT.Params()[0] != netP.Params()[0] {
		t.Fatal("online tracing perturbed the weights")
	}
	out := buf.String()
	if strings.Contains(out, `"grad_norm"`) {
		t.Fatal("online epoch events should not claim a batch gradient norm")
	}
	if !strings.Contains(out, `"ev":"epoch"`) {
		t.Fatal("online mode emitted no epoch events")
	}
}
