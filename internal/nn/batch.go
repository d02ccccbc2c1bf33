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

// ensure sizes the workspace for a batch of the given row count through net.
func (ws *BatchWorkspace) ensure(n *Network, batch int) {
	if len(ws.acts) != len(n.Layers) {
		ws.acts = make([]*mat.Matrix, len(n.Layers))
		ws.pres = make([]*mat.Matrix, len(n.Layers))
		ws.actsAll = make([]*mat.Matrix, len(n.Layers)+1)
		for i := range ws.acts {
			ws.acts[i] = &mat.Matrix{}
			ws.pres[i] = &mat.Matrix{}
		}
	}
	for i, l := range n.Layers {
		ws.acts[i].Reshape(batch, l.Outputs)
		ws.pres[i].Reshape(batch, l.Outputs)
	}
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
	ws.ensure(n, X.Rows)
	ws.actsAll[0] = X
	in := X
	for i, l := range n.Layers {
		out, pre := ws.acts[i], ws.pres[i]
		// One register-blocked affine kernel for the whole batch, then the activation
		// over the flat backing array — the row-major flattening visits
		// elements in the same per-row ascending order as the per-sample
		// path, so both stay bit-identical to forwardInto.
		mat.MulTransBiasInto(pre, in, l.W, l.B)
		EvalRow(l.Act, pre.Data, out.Data)
		ws.actsAll[i+1] = out
		in = out
	}
	return ws.actsAll, ws.pres
}

// ForwardBatch runs the network on every row of X and returns the output
// matrix (one prediction per row), a view into ws valid until its next use.
//
//nnwc:hotpath
func (n *Network) ForwardBatch(X *mat.Matrix, ws *BatchWorkspace) *mat.Matrix {
	acts, _ := n.ForwardTraceBatch(X, ws)
	return acts[len(acts)-1]
}
