package train

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"nnwc/internal/nn"
	"nnwc/internal/obs"
	"nnwc/internal/obs/obstest"
	"nnwc/internal/rng"
)

// fitTwice runs the same seeded fit with and without tracing and returns
// both nets plus the traced run's JSONL.
func fitTwice(t *testing.T, cfg Config) (plain, traced *nn.Network, trace []byte, plainRes, tracedRes Result) {
	t.Helper()
	build := func() (*nn.Network, *Trainer) {
		src := rng.New(21)
		net := nn.NewNetwork([]int{2, 6, 1}, nn.Tanh{}, nn.Identity{})
		nn.XavierInit(net, src)
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
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 200}
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
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 40}
	_, _, trace, _, res := fitTwice(t, cfg)
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if !strings.Contains(lines[0], `"ev":"fit_start"`) {
		t.Fatalf("first event is not fit_start: %s", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"ev":"fit_end"`) || !strings.Contains(last, `"stop_reason":"`+string(res.Reason)+`"`) {
		t.Fatalf("last event is not a fit_end with the stop reason: %s", last)
	}
	epochs, lastEpoch := 0, ""
	for _, l := range lines {
		if strings.Contains(l, `"ev":"epoch"`) {
			epochs, lastEpoch = epochs+1, l
			for _, key := range []string{`"train_loss":`, `"weight_norm":`, `"grad_norm":`, `"step_norm":`} {
				if !strings.Contains(l, key) {
					t.Fatalf("epoch event missing %s: %s", key, l)
				}
			}
		}
	}
	if epochs != res.Epochs || !strings.Contains(lastEpoch, fmt.Sprintf(`"epoch":%d,`, res.Epochs)) {
		t.Fatalf("trace has %d epoch events, the last %s; training ran %d epochs", epochs, lastEpoch, res.Epochs)
	}
}

func TestTraceIsDeterministic(t *testing.T) {
	cfg := Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 60}
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
	nn.XavierInit(net, src)
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
	invN := 1 / float64(len(xs))
	tr.batchEpoch(net, g, invN)
	allocs := testing.AllocsPerRun(50, func() {
		tr.batchEpoch(net, g, invN)
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
		tr, err := newTrainer(Config{Optimizer: &SGD{LR: 0.05}, Mode: Online, MaxEpochs: 30, Trace: trace}, src.Split())
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
