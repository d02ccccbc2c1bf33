package nn

import (
	"fmt"

	"nnwc/internal/mat"
)

// BatchWorkspace holds the per-layer activation and pre-activation buffers
// batched evaluation writes into. The zero value is ready to use; buffers
// are allocated on first use and grown (never shrunk) as batch sizes and
// topologies require, so steady-state forward/backward passes allocate
// nothing. A workspace must not be shared between concurrent goroutines.
type BatchWorkspace struct {
	acts    []*mat.Matrix // layer outputs; acts[i] belongs to layer i
	pres    []*mat.Matrix // layer pre-activations
	actsAll []*mat.Matrix // [input, acts...] assembled per call
}

// ensure sizes the workspace for a batch of the given row count through net
// and returns its layer outputs and pre-activations, one per layer. A
// workspace keeps every matrix it has made, so alternating topologies of
// different depths reuse them instead of starting over.
func (ws *BatchWorkspace) ensure(n *Network, batch int) (acts, pres []*mat.Matrix) {
	for len(ws.acts) < len(n.Layers) {
		ws.acts = append(ws.acts, &mat.Matrix{})
		ws.pres = append(ws.pres, &mat.Matrix{})
	}
	if len(ws.actsAll) <= len(n.Layers) {
		ws.actsAll = make([]*mat.Matrix, len(n.Layers)+1)
	}
	acts, pres = ws.acts[:len(n.Layers)], ws.pres[:len(n.Layers)]
	for i, l := range n.Layers {
		acts[i].Reshape(batch, l.Outputs)
		pres[i].Reshape(batch, l.Outputs)
	}
	return acts, pres
}

// ForwardTraceBatch runs the network on every row of X (one sample per
// row) and returns per-layer activation and pre-activation matrices:
// acts[0] is X itself, acts[i+1] and pres[i] belong to layer i. The
// returned matrices are views into ws and stay valid only until its next
// use. Steady-state calls perform zero allocation.
//
// Row r of every returned matrix is bit-identical to what the per-sample
// ForwardTrace produces for X.Row(r): the batched kernels accumulate in the
// same order, so batching is a pure throughput optimization.
//
//nnwc:hotpath
func (n *Network) ForwardTraceBatch(X *mat.Matrix, ws *BatchWorkspace) (acts, pres []*mat.Matrix) {
	if X.Cols != n.InputDim() {
		panic(fmt.Sprintf("nn: batch has %d columns, network expects %d inputs", X.Cols, n.InputDim()))
	}
	outs, pres := ws.ensure(n, X.Rows)
	acts = ws.actsAll[:len(n.Layers)+1]
	acts[0] = X
	in := X
	for i, l := range n.Layers {
		out, pre := outs[i], pres[i]
		// One register-blocked affine kernel for the whole batch, then the activation
		// over the flat backing array — the row-major flattening visits
		// elements in the same per-row ascending order as the per-sample
		// path, so both stay bit-identical to forwardInto.
		mat.MulTransBiasInto(pre, in, l.W, l.B)
		EvalRow(l.Act, pre.Data, out.Data)
		acts[i+1] = out
		in = out
	}
	return acts, pres
}

// ForwardBatch runs the network on every row of X and returns the output
// matrix (one prediction per row), a view into ws valid until its next use.
//
//nnwc:hotpath
func (n *Network) ForwardBatch(X *mat.Matrix, ws *BatchWorkspace) *mat.Matrix {
	acts, _ := n.ForwardTraceBatch(X, ws)
	return acts[len(acts)-1]
}
