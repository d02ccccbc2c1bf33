package train

import (
	"math"
	"runtime"
	"testing"

	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// trainOnce runs a short batch training with the given worker count and
// returns the final loss and a snapshot of the trained parameters.
func trainOnce(t *testing.T, workers int) (loss float64, params []float64) {
	t.Helper()
	src := rng.New(77)
	net := nn.NewNetwork([]int{3, 10, 2}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit{}.Init(net, src)
	var xs, ys [][]float64
	data := rng.New(5)
	for i := 0; i < 240; i++ {
		x := []float64{data.Uniform(-1, 1), data.Uniform(-1, 1), data.Uniform(-1, 1)}
		xs = append(xs, x)
		ys = append(ys, []float64{x[0] * x[1], x[2] * x[2]})
	}
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 120, Workers: workers}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitRows(tr, net, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.FinalLoss, append([]float64(nil), net.Params()...)
}

func TestParallelBatchMatchesSerial(t *testing.T) {
	serialLoss, serialParams := trainOnce(t, 1)
	for _, workers := range []int{2, 4, 7} {
		loss, params := trainOnce(t, workers)
		// The serial path accumulates the whole batch in one sweep while the
		// parallel path sums per-block partials, so the last floating-point
		// bits may differ; training must still land in the same minimum.
		if math.Abs(loss-serialLoss) > 1e-6*(1+serialLoss) {
			t.Fatalf("workers=%d: loss %v vs serial %v", workers, loss, serialLoss)
		}
		for i := range params {
			if math.Abs(params[i]-serialParams[i]) > 1e-4*(1+math.Abs(serialParams[i])) {
				t.Fatalf("workers=%d: param %d drifted: %v vs serial %v",
					workers, i, params[i], serialParams[i])
			}
		}
	}
}

// TestParallelDeterministic pins the refactor's reproducibility guarantee:
// the final weights are bit-identical across repeated runs AND across
// worker counts, because the sample-block geometry depends only on the
// batch size and block partials always reduce in ascending block order.
func TestParallelDeterministic(t *testing.T) {
	refLoss, refParams := trainOnce(t, 2)
	for _, workers := range []int{2, 3, 4, 8} {
		loss, params := trainOnce(t, workers)
		if loss != refLoss {
			t.Fatalf("workers=%d: loss %x differs from workers=2 loss %x",
				workers, math.Float64bits(loss), math.Float64bits(refLoss))
		}
		for i := range params {
			if params[i] != refParams[i] {
				t.Fatalf("workers=%d: param %d not bit-identical: %x vs %x",
					workers, i, math.Float64bits(params[i]), math.Float64bits(refParams[i]))
			}
		}
	}
}

func TestParallelFallsBackOnTinyBatches(t *testing.T) {
	// With fewer samples than 2×workers the trainer must use the serial
	// path without deadlocking or dividing by zero.
	src := rng.New(78)
	net := nn.NewNetwork([]int{1, 2, 1}, nn.Tanh{}, nn.Identity{})
	nn.XavierInit{}.Init(net, src)
	tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 5, Workers: runtime.NumCPU()}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fitRows(tr, net, [][]float64{{1}, {2}}, [][]float64{{1}, {2}}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNumBlocksPureAndClamped(t *testing.T) {
	cases := map[int]int{1: 1, 31: 1, 32: 1, 64: 2, 240: 7, 512: 16, 100000: 16}
	for n, want := range cases {
		if got := numBlocks(n); got != want {
			t.Fatalf("numBlocks(%d) = %d, want %d", n, got, want)
		}
	}
}

// BenchmarkBatchEpochSerialVsParallel compares gradient-accumulation
// strategies. The speedup scales with GOMAXPROCS; on a single-core host
// the parallel path merely documents its (small) coordination overhead.
func BenchmarkBatchEpochSerialVsParallel(b *testing.B) {
	src := rng.New(1)
	var xs, ys [][]float64
	for i := 0; i < 2000; i++ {
		x := []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
		xs = append(xs, x)
		ys = append(ys, []float64{x[0] * x[1], x[2], x[3], x[0] + x[3], x[1]})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "serial", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers]
		b.Run(name, func(b *testing.B) {
			net := nn.NewNetwork([]int{4, 32, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
			nn.XavierInit{}.Init(net, rng.New(2))
			tr, err := newTrainer(Config{Optimizer: NewRPROP(), Mode: Batch, MaxEpochs: 1, Workers: workers}, rng.New(3))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fitRows(tr, net, xs, ys, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
