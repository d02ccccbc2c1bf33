package train

import (
	"fmt"
	"math"
	"testing"

	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// reuseCase is one fit of TestTrainerReuseBitIdentical.
type reuseCase struct {
	sizes []int
	rows  int
	opt   Optimizer
	mode  Mode
	val   bool
}

func (c reuseCase) String() string {
	return fmt.Sprintf("%v×%d/%s/val=%v", c.sizes, c.rows, c.opt.Name(), c.val)
}

// reuseRows samples n rows of a smooth in→out map.
func reuseRows(in, out, n int, seed uint64) (xs, ys [][]float64) {
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		x := make([]float64, in)
		for j := range x {
			x[j] = src.Uniform(-1, 1)
		}
		y := make([]float64, out)
		for j := range y {
			y[j] = math.Sin(x[j%in]+float64(j)) * x[(j+1)%in]
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

// fitReuseCase fits case c on tr (nil: a new Trainer) from a fixed
// initialization, returning the trained parameters and the Result.
func fitReuseCase(t *testing.T, tr *Trainer, c reuseCase, seed uint64) ([]float64, Result) {
	t.Helper()
	in, out := c.sizes[0], c.sizes[len(c.sizes)-1]
	xs, ys := reuseRows(in, out, c.rows, seed)
	var vx, vy [][]float64
	if c.val {
		vx, vy = reuseRows(in, out, c.rows/4+1, seed+1)
	}
	net := nn.NewNetwork(c.sizes, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, rng.New(seed+2))
	cfg := Config{Optimizer: c.opt, Mode: c.mode, MaxEpochs: 30}
	if c.val {
		cfg.Patience = 4
	}
	var err error
	if tr == nil {
		tr, err = newTrainer(cfg, rng.New(seed+3))
	} else {
		err = tr.Reset(cfg, rng.New(seed+3))
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, vx, vy)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), net.Params()...), res
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTrainerReuseBitIdentical pins that a trainer reused across fits of
// changing topologies, optimizers, modes and validation sets (as core's
// pool reuses one) trains every fit bit for bit as a new Trainer does, and
// that Release drops the run's trace and source.
func TestTrainerReuseBitIdentical(t *testing.T) {
	shapes := []struct {
		sizes []int
		rows  int
	}{{[]int{4, 16, 5}, 259}, {[]int{4, 24, 24, 5}, 64}, {[]int{3, 7, 2}, 33}}
	var cases []reuseCase
	for _, sh := range shapes {
		for _, opt := range []struct {
			opt  Optimizer
			mode Mode
		}{{NewRPROP(), Batch}, {&SGD{LR: 0.05}, Online}, {&Momentum{LR: 0.02, Mu: 0.9}, Batch}} {
			for _, val := range []bool{false, true} {
				cases = append(cases, reuseCase{sh.sizes, sh.rows, opt.opt, opt.mode, val})
			}
		}
	}
	// Two passes: the first changes topology only between shapes, the
	// second (interleaved) on every fit.
	var order []reuseCase
	order = append(order, cases...)
	for i := 0; i < len(cases)/len(shapes); i++ {
		for s := range shapes {
			order = append(order, cases[s*len(cases)/len(shapes)+i])
		}
	}
	reused := &Trainer{}
	for i, c := range order {
		seed := uint64(100 + i)
		wantParams, want := fitReuseCase(t, nil, c, seed)
		gotParams, got := fitReuseCase(t, reused, c, seed)
		for j := range wantParams {
			if !sameBits(gotParams[j], wantParams[j]) {
				t.Fatalf("fit %d (%v): param %d = %v on the reused trainer, %v on a new one", i, c, j, gotParams[j], wantParams[j])
			}
		}
		if got.Epochs != want.Epochs || got.Reason != want.Reason ||
			!sameBits(got.FinalLoss, want.FinalLoss) || !sameBits(got.ValLoss, want.ValLoss) {
			t.Fatalf("fit %d (%v): reused trainer's result %+v, new trainer's %+v", i, c, got, want)
		}
		reused.Release()
		if reused.cfg.Trace != nil || reused.src != nil {
			t.Fatalf("fit %d: Release kept the run's trace or source", i)
		}
	}
}
