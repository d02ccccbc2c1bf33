package mat

// This file holds the compute kernels behind the batched neural-network
// forward and backward passes. Their invariant: every output element sees
// exactly the IEEE-754 operation sequence of the naive loop — the same
// start value (bias, prior contents or +0), the same terms, added one at a
// time in ascending reduction order onto a single accumulator. So no
// math.FMA, no split or reassociated sums, and no hoisted common factors;
// the repo's 1e-9 seed-reference pin and the training-spine digest depend
// on it (see DESIGN.md §13).
//
// On amd64 with AVX the exported kernels dispatch to kernels_amd64.s, one
// output element per lane. The Go kernels are the naive loops themselves:
// the portable path, and the definition the tests hold the assembly to.

// MulTransBiasInto computes dst[i][j] = bias[j] + Σₖ a[i][k]·b[j][k] — the
// batched affine layer transform (samples × features)·(outputs × features)ᵀ
// plus a per-output bias, accumulated bias-first in ascending k exactly like
// the per-sample perceptron loop. bias may be nil for a plain a·bᵀ. dst must
// not alias a or b; it is reshaped to a.Rows×b.Rows. Returns dst.
//
//nnwc:hotpath
func MulTransBiasInto(dst, a, b *Matrix, bias []float64) *Matrix {
	if a.Cols != b.Cols || (bias != nil && len(bias) != b.Rows) {
		panic(ErrShape)
	}
	dst.Reshape(a.Rows, b.Rows)
	mulTransBiasInto(dst, a, b, bias)
	return dst
}

// mulTransBiasGo is MulTransBiasInto's portable kernel (dst already
// shaped) and its definition: the per-sample perceptron loop, every cell
// from its bias (+0 when bias is nil) plus a[i][k]·b[j][k] in ascending k.
//
//nnwc:hotpath
func mulTransBiasGo(dst, a, b *Matrix, bias []float64) {
	for i := 0; i < a.Rows; i++ {
		x, c := a.Row(i), dst.Row(i)
		for j := range c {
			var s float64
			if bias != nil {
				s = bias[j]
			}
			w := b.Row(j)[:len(x)]
			for k, u := range x {
				s += u * w[k]
			}
			c[j] = s
		}
	}
}

// GradAccumInto accumulates one batch of layer gradients: for every sample
// row r (ascending), every output o, and every input j it performs
//
//	db[o]       += scale·delta[r][o]
//	dw[o][j]    += scale·(delta[r][o]·in[r][j])
//
// — the exact expression and ascending-r order of the per-sample backprop
// path, so scale = 1/N reproduces the classic mean-gradient epoch
// bit-for-bit. dw and db are accumulated into, not overwritten. delta is
// batch×outputs, in is batch×inputs, dw outputs×inputs, db len outputs.
//
//nnwc:hotpath
func GradAccumInto(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	if delta.Rows != in.Rows || dw.Rows != delta.Cols || dw.Cols != in.Cols || len(db) != delta.Cols {
		panic(ErrShape)
	}
	gradAccumInto(dw, db, delta, in, scale)
}

// gradAccumGo is GradAccumInto's portable kernel and its definition: the
// per-sample backprop accumulation in ascending r, then o, then j.
//
//nnwc:hotpath
func gradAccumGo(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	for r := 0; r < delta.Rows; r++ {
		x := in.Row(r)
		for o, d := range delta.Row(r) {
			db[o] += scale * d
			row := dw.Row(o)[:len(x)]
			for j, xv := range x {
				row[j] += scale * (d * xv)
			}
		}
	}
}
