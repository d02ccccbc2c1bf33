// Package train implements gradient-descent back-propagation training for
// the MLPs in package nn — "by far the most popular" method per the
// paper's §2.2 — along with several optimizers (online/batch SGD,
// momentum, RPROP, Adam), epoch management, and the early-stopping
// ("termination threshold") control the paper uses in §3.3 to keep the
// model loosely fitted and flexible on unseen samples.
//
// Gradients mirror the network's flat parameter vector: one contiguous
// []float64 laid out exactly like nn.Network.Params, with per-layer matrix
// views for code that wants shaped access. The batched entry points
// (BackpropBatch, LossBatch) process whole sample matrices against
// preallocated workspaces and perform zero per-sample allocation.
package train

import (
	"fmt"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
)

// Gradients holds ∂E/∂w and ∂E/∂b for every layer of a network in one flat
// vector with the same layout as nn.Network.Params: per layer, the weight
// gradients (row-major, Outputs × Inputs) followed by the bias gradients.
// DW and DB are views into Flat.
type Gradients struct {
	Flat []float64
	DW   []*mat.Matrix // layer → Outputs × Inputs weight-gradient view
	DB   [][]float64   // layer → Outputs bias-gradient view
}

// NewGradients allocates zeroed gradients shaped like net.
func NewGradients(net *nn.Network) *Gradients {
	g := &Gradients{
		Flat: make([]float64, net.NumParams()),
		DW:   make([]*mat.Matrix, len(net.Layers)),
		DB:   make([][]float64, len(net.Layers)),
	}
	off := 0
	for i, l := range net.Layers {
		wspan := l.Outputs * l.Inputs
		g.DW[i] = &mat.Matrix{Rows: l.Outputs, Cols: l.Inputs, Data: g.Flat[off : off+wspan]}
		g.DB[i] = g.Flat[off+wspan : off+wspan+l.Outputs]
		off += wspan + l.Outputs
	}
	return g
}

// Zero resets all gradient entries.
//
//nnwc:hotpath
func (g *Gradients) Zero() {
	for i := range g.Flat {
		g.Flat[i] = 0
	}
}

// Workspace holds the reusable buffers batched training needs: the forward
// activation trace plus two delta matrices. The zero value is ready to use;
// buffers grow on demand and steady-state epochs allocate nothing. A
// workspace must not be shared between concurrent goroutines.
type Workspace struct {
	fw     nn.BatchWorkspace
	delta  mat.Matrix
	delta2 mat.Matrix
}

// Backprop computes the squared-error loss E = ½‖ŷ − y‖² for one sample
// and writes the exact gradient of E with respect to every weight and bias
// into out (overwriting it). It returns the loss.
func Backprop(net *nn.Network, x, y []float64, out *Gradients) float64 {
	if len(y) != net.OutputDim() {
		panic(fmt.Sprintf("train: target has %d entries, network outputs %d", len(y), net.OutputDim()))
	}
	acts, pres := net.ForwardTrace(x)
	pred := acts[len(acts)-1]

	// Output-layer delta: (ŷ − y) ⊙ f'(pre).
	last := len(net.Layers) - 1
	delta := make([]float64, net.Layers[last].Outputs)
	var loss float64
	for i := range delta {
		diff := pred[i] - y[i]
		loss += 0.5 * diff * diff
		delta[i] = diff * net.Layers[last].Act.Deriv(pres[last][i], pred[i])
	}

	// Walk the layers backwards, filling gradients and propagating deltas.
	for li := last; li >= 0; li-- {
		layer := net.Layers[li]
		in := acts[li]
		for o := 0; o < layer.Outputs; o++ {
			d := delta[o]
			out.DB[li][o] = d
			row := out.DW[li].Row(o)
			for j, xv := range in {
				row[j] = d * xv
			}
		}
		if li == 0 {
			break
		}
		prev := net.Layers[li-1]
		nextDelta := make([]float64, prev.Outputs)
		for j := 0; j < prev.Outputs; j++ {
			var s float64
			wcol := layer.W
			for o := 0; o < layer.Outputs; o++ {
				s += delta[o] * wcol.At(o, j)
			}
			nextDelta[j] = s * prev.Act.Deriv(pres[li-1][j], acts[li][j])
		}
		delta = nextDelta
	}
	return loss
}

// BackpropBatch runs one batched forward/backward pass over every row of
// X/Y and overwrites out with scale × the sum of the per-sample gradients
// (accumulated in ascending row order with the same rounding as the
// per-sample path, so scale = 1/N reproduces the classic mean-gradient
// epoch bit-for-bit). It returns the summed per-sample loss Σᵣ ½‖ŷᵣ − yᵣ‖².
// Steady-state calls perform zero per-sample allocation.
//
//nnwc:hotpath
func BackpropBatch(net *nn.Network, X, Y *mat.Matrix, scale float64, ws *Workspace, out *Gradients) float64 {
	if X.Rows != Y.Rows {
		panic(fmt.Sprintf("train: batch has %d inputs but %d targets", X.Rows, Y.Rows))
	}
	if Y.Cols != net.OutputDim() {
		panic(fmt.Sprintf("train: targets have %d columns, network outputs %d", Y.Cols, net.OutputDim()))
	}
	if ws == nil {
		//lint:waive hotpath -- nil-workspace fallback for one-shot callers; the training loop passes a warmed workspace
		ws = &Workspace{}
	}
	acts, pres := net.ForwardTraceBatch(X, &ws.fw)
	batch := X.Rows
	last := len(net.Layers) - 1
	lastLayer := net.Layers[last]
	pred := acts[last+1]

	// Output-layer deltas and loss in one walk over the flat matrices, in
	// the per-row order: a row's loss sums from +0, then joins the total.
	// Then one derivative sweep over the flat delta matrix.
	outs := lastLayer.Outputs
	delta := ws.delta.Reshape(batch, outs)
	pd := pred.Data[:batch*outs]
	yd, dd := Y.Data[:len(pd)], delta.Data[:len(pd)]
	var total, loss float64
	col := 0
	for i, p := range pd {
		diff := p - yd[i]
		loss += 0.5 * diff * diff
		dd[i] = diff
		if col++; col == outs {
			total += loss
			loss, col = 0, 0
		}
	}
	nn.ScaleByDeriv(lastLayer.Act, pres[last].Data, pred.Data, delta.Data)

	// Walk the layers backwards: accumulate scaled gradients over the batch
	// and propagate deltas through the mat kernels. GradAccumInto keeps the
	// per-sample path's exact expression and ascending r/o/j order; MulInto
	// accumulates Σₒ d·W[o][j] in the same ascending-o order as the old
	// per-row AXPY loop.
	out.Zero()
	cur, next := &ws.delta, &ws.delta2
	for li := last; li >= 0; li-- {
		layer := net.Layers[li]
		in := acts[li]
		mat.GradAccumInto(out.DW[li], out.DB[li], cur, in, scale)
		if li == 0 {
			break
		}
		prev := net.Layers[li-1]
		nd := mat.MulInto(next, cur, layer.W)
		nn.ScaleByDeriv(prev.Act, pres[li-1].Data, acts[li].Data, nd.Data)
		cur, next = next, cur
	}
	return total
}

// LossBatch returns the mean squared-error loss of net over the rows of
// X/Y using ws's buffers, with the same ½‖ŷ−y‖² per-sample convention as
// Backprop, summed in row order.
//
//nnwc:hotpath
func LossBatch(net *nn.Network, X, Y *mat.Matrix, ws *Workspace) float64 {
	if X.Rows == 0 {
		return 0
	}
	if X.Rows != Y.Rows {
		panic(fmt.Sprintf("train: batch has %d inputs but %d targets", X.Rows, Y.Rows))
	}
	if ws == nil {
		//lint:waive hotpath -- nil-workspace fallback for one-shot callers; the training loop passes a warmed workspace
		ws = &Workspace{}
	}
	pred := net.ForwardBatch(X, &ws.fw)
	var total float64
	for r := 0; r < X.Rows; r++ {
		prow, yrow := pred.Row(r), Y.Row(r)
		for j, p := range prow {
			d := p - yrow[j]
			total += 0.5 * d * d
		}
	}
	return total / float64(X.Rows)
}
