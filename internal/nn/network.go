package nn

import (
	"fmt"
	"math"

	"nnwc/internal/mat"
	"nnwc/internal/rng"
)

// Layer is one fully connected layer of perceptrons. Each of the Outputs
// perceptrons computes act(Σⱼ W[i,j]·xⱼ + B[i]); the bias B[i] plays the
// role of the paper's −w₀ threshold term.
//
// Weights live in a single row-major mat.Matrix (Outputs × Inputs) and the
// biases directly after them, so a layer's parameters occupy one contiguous
// block. Layers built by NewNetwork view slices of the network's flat
// parameter vector.
type Layer struct {
	Inputs, Outputs int
	W               *mat.Matrix // Outputs × Inputs weights, row-major
	B               []float64   // Outputs biases
	Act             Activation
}

// newLayerView builds a layer whose W and B view the given parameter block
// (length outputs*inputs+outputs): weights first, row-major, then biases.
func newLayerView(inputs, outputs int, act Activation, block []float64) *Layer {
	return &Layer{
		Inputs:  inputs,
		Outputs: outputs,
		W:       &mat.Matrix{Rows: outputs, Cols: inputs, Data: block[:outputs*inputs]},
		B:       block[outputs*inputs:],
		Act:     act,
	}
}

// Forward computes the layer output for input x, also returning the
// pre-activation sums (needed by back-propagation).
func (l *Layer) Forward(x []float64) (out, pre []float64) {
	if len(x) != l.Inputs {
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", l.Inputs, len(x)))
	}
	out = make([]float64, l.Outputs)
	pre = make([]float64, l.Outputs)
	l.forwardInto(x, out, pre)
	return out, pre
}

// forwardInto is the allocation-free core of Forward: one affine transform
// plus activation into caller-owned slices. The pre-activations are
// computed first and the activation applied row-wise afterwards — same
// values as the per-neuron formulation, but with the activation
// devirtualized once per row. The seeded dot accumulates bias-first in
// ascending j, matching the batched mat.MulTransBiasInto kernel bit for
// bit.
//
//nnwc:hotpath
func (l *Layer) forwardInto(x, out, pre []float64) {
	wd, off := l.W.Data, 0
	for i := 0; i < l.Outputs; i++ {
		pre[i] = mat.DotSeed(l.B[i], x, wd[off:off+len(x)])
		off += l.Inputs
	}
	EvalRow(l.Act, pre[:l.Outputs], out)
}

// Network is a multilayer perceptron: an input "layer" (not counted, per
// the paper's convention in §2.2), zero or more hidden layers, and an
// output layer.
//
// All parameters live in one flat vector, ordered layer by layer — each
// layer contributing its weights (row-major, Outputs × Inputs) followed by
// its biases. Every Layer's W and B are views into that vector, so
// optimizers, serialization, and gradient bookkeeping can treat the whole
// network as a single []float64. Do not replace entries of Layers with
// foreign layers — mutate Act or the weight values in place instead.
type Network struct {
	Layers []*Layer
	params []float64
}

// NewNetwork builds an MLP with the given layer sizes. sizes[0] is the
// input dimensionality; sizes[len-1] the output dimensionality. hidden is
// the activation for hidden layers; output for the final layer (Identity
// for regression).
func NewNetwork(sizes []int, hidden, output Activation) *Network {
	if len(sizes) < 2 {
		panic("nn: network needs at least input and output sizes")
	}
	acts := make([]Activation, len(sizes)-1)
	for i := range acts {
		if i == len(acts)-1 {
			acts[i] = output
		} else {
			acts[i] = hidden
		}
	}
	return newNetwork(sizes, acts)
}

// newNetwork assembles a flat-parameter network from explicit per-layer
// activations (len(acts) == len(sizes)-1).
func newNetwork(sizes []int, acts []Activation) *Network {
	var total int
	for i := 0; i < len(sizes)-1; i++ {
		if sizes[i] <= 0 || sizes[i+1] <= 0 {
			panic(fmt.Sprintf("nn: invalid layer shape %d->%d", sizes[i], sizes[i+1]))
		}
		total += sizes[i+1]*sizes[i] + sizes[i+1]
	}
	n := &Network{params: make([]float64, total)}
	off := 0
	for i := 0; i < len(sizes)-1; i++ {
		span := sizes[i+1]*sizes[i] + sizes[i+1]
		n.Layers = append(n.Layers, newLayerView(sizes[i], sizes[i+1], acts[i], n.params[off:off+span]))
		off += span
	}
	return n
}

// Params returns the network's flat parameter vector: every layer's weights
// (row-major) followed by its biases, concatenated in layer order. The
// returned slice aliases the live parameters — writes through it move the
// network, and every Layer's W and B view into it.
func (n *Network) Params() []float64 { return n.params }

// SetParams overwrites the network's parameters from a flat vector laid out
// as Params.
func (n *Network) SetParams(p []float64) {
	if len(p) != len(n.params) {
		panic(fmt.Sprintf("nn: SetParams got %d values, network has %d", len(p), len(n.params)))
	}
	copy(n.params, p)
}

// InputDim returns the expected input dimensionality.
func (n *Network) InputDim() int { return n.Layers[0].Inputs }

// OutputDim returns the output dimensionality.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Outputs }

// Sizes returns the layer sizes including input and output.
func (n *Network) Sizes() []int {
	sizes := []int{n.InputDim()}
	for _, l := range n.Layers {
		sizes = append(sizes, l.Outputs)
	}
	return sizes
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int { return len(n.params) }

// Forward runs the network on x and returns the output vector.
func (n *Network) Forward(x []float64) []float64 {
	out := x
	for _, l := range n.Layers {
		next := make([]float64, l.Outputs)
		pre := make([]float64, l.Outputs)
		l.forwardInto(out, next, pre)
		out = next
	}
	return out
}

// ForwardTrace runs the network and returns every layer's activations and
// pre-activations. acts[0] is the input; acts[i+1] and pres[i] belong to
// layer i. Back-propagation consumes this trace.
func (n *Network) ForwardTrace(x []float64) (acts, pres [][]float64) {
	acts = make([][]float64, len(n.Layers)+1)
	pres = make([][]float64, len(n.Layers))
	acts[0] = x
	for i, l := range n.Layers {
		acts[i+1], pres[i] = l.Forward(acts[i])
	}
	return acts, pres
}

// acts collects the per-layer activations (for rebuilding topologies).
func (n *Network) acts() []Activation {
	acts := make([]Activation, len(n.Layers))
	for i, l := range n.Layers {
		acts[i] = l.Act
	}
	return acts
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := newNetwork(n.Sizes(), n.acts())
	copy(c.params, n.params)
	return c
}

// XavierInit seeds n's weights before training: the paper's weights and
// biases "are initialized with random values when the training process
// begins" (§3.1). Weights are drawn from a uniform distribution whose scale
// depends on fan-in and fan-out (Glorot & Bengio), which keeps activation
// variance stable across layers; biases start at zero.
func XavierInit(n *Network, src *rng.Source) {
	for _, l := range n.Layers {
		limit := math.Sqrt(6 / float64(l.Inputs+l.Outputs))
		for o := 0; o < l.Outputs; o++ {
			row := l.W.Row(o)
			for j := range row {
				row[j] = src.Uniform(-limit, limit)
			}
		}
		for i := range l.B {
			l.B[i] = 0
		}
	}
}
