package train

import (
	"sync/atomic"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/sched"
)

// Parallel gradient accumulation works on fixed sample blocks rather than
// per-worker shards: the batch is cut into numBlocks(n) contiguous blocks
// whose boundaries depend only on the sample count, workers pull block
// indices from a shared counter, and the per-block partial gradients merge
// serially in ascending block order. Because neither the block geometry nor
// the reduction order depends on the worker count or on scheduling, the
// accumulated gradient — and therefore the trained network — is
// bit-identical across runs and across any Workers > 1 setting.

// numBlocks picks the block count for an n-sample batch: roughly 32 samples
// per block, clamped to [1, 16]. A pure function of n so the floating-point
// reduction tree never changes shape.
func numBlocks(n int) int {
	nb := n / 32
	if nb < 1 {
		nb = 1
	}
	if nb > 16 {
		nb = 16
	}
	return nb
}

// parallelScratch holds the per-block gradient accumulators and per-worker
// workspaces for parallel batch epochs, allocated lazily on the first
// parallel epoch and reused until a fit changes the topology.
type parallelScratch struct {
	blocks []*Gradients // one accumulator per sample block
	losses []float64    // per-block summed sample loss
	wss    []Workspace  // one forward/backward workspace per worker
}

// parallelBatch accumulates the full-batch mean gradient across worker
// goroutines and writes it into out. Backprop only reads the network's
// weights, so workers share net; each block owns private accumulators.
// Returns the mean per-sample loss.
func (t *Trainer) parallelBatch(net *nn.Network, X, Y *mat.Matrix, out *Gradients) float64 {
	n := X.Rows
	nb := numBlocks(n)
	workers := t.cfg.Workers
	if workers > nb {
		workers = nb
	}

	sc := &t.parallel
	if len(sc.blocks) < nb {
		sc.blocks = make([]*Gradients, nb)
		for b := range sc.blocks {
			sc.blocks[b] = NewGradients(net)
		}
		sc.losses = make([]float64, nb)
	}
	if len(sc.wss) < workers {
		sc.wss = make([]Workspace, workers)
	}

	invN := 1 / float64(n)
	var nextBlock int64
	sched.RunWorkers(workers, func(w int) {
		ws := &sc.wss[w]
		for {
			b := int(atomic.AddInt64(&nextBlock, 1)) - 1
			if b >= nb {
				return
			}
			lo, hi := b*n/nb, (b+1)*n/nb
			bx, by := X.RowRange(lo, hi), Y.RowRange(lo, hi)
			sc.losses[b] = BackpropBatch(net, &bx, &by, invN, ws, sc.blocks[b])
		}
	})

	// Serial reduction in ascending block order: the only float summation
	// whose order could depend on scheduling, pinned here instead.
	out.Zero()
	var total float64
	for b := 0; b < nb; b++ {
		out.AddScaled(1, sc.blocks[b])
		total += sc.losses[b]
	}
	return total * invN
}
