package mat

// This file holds the register-blocked compute kernels behind the batched
// neural-network forward and backward passes. Their invariant: every output
// element sees exactly the IEEE-754 operation sequence of the naive loop —
// the same start value (bias, prior contents or +0), the same terms, added
// one at a time in ascending reduction order onto a single accumulator. So
// no math.FMA, no split or reassociated sums, and no hoisted common factors;
// the repo's 1e-9 seed-reference pin and the training-spine digest depend
// on it (see DESIGN.md §13).
//
// The speed comes from computing a small block of independent outputs per
// sweep of the reduction axis: their accumulators stay in registers, every
// operand load feeds several of them, and each output is stored once. No
// cache tiling: every weight matrix trained or served here (≤ 24×24) already
// sits in L1. On amd64 with AVX the exported kernels dispatch to
// kernels_amd64.s, one output element per lane; the Go kernels here are
// the portable path and the reference the tests hold the assembly to.

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
// shaped). Rows go in pairs × 4 outputs (8 accumulators) and the b.Rows%4
// tail outputs 2 × 1; an odd last row runs 1 × 4, then DotSeed.
//
//nnwc:hotpath
func mulTransBiasGo(dst, a, b *Matrix, bias []float64) {
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		x0 := a.Row(i)
		x1 := a.Row(i + 1)[:len(x0)]
		c0, c1 := dst.Row(i), dst.Row(i+1)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			var s0, s1, s2, s3 float64
			if bias != nil {
				s0, s1, s2, s3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
			}
			t0, t1, t2, t3 := s0, s1, s2, s3
			w0, w1, w2, w3 := b.Row(j)[:len(x0)], b.Row(j + 1)[:len(x0)], b.Row(j + 2)[:len(x0)], b.Row(j + 3)[:len(x0)]
			for k, u := range x0 {
				v := x1[k]
				s0 += u * w0[k]
				s1 += u * w1[k]
				s2 += u * w2[k]
				s3 += u * w3[k]
				t0 += v * w0[k]
				t1 += v * w1[k]
				t2 += v * w2[k]
				t3 += v * w3[k]
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s0, s1, s2, s3
			c1[j], c1[j+1], c1[j+2], c1[j+3] = t0, t1, t2, t3
		}
		for ; j < b.Rows; j++ {
			var s float64
			if bias != nil {
				s = bias[j]
			}
			t, w := s, b.Row(j)[:len(x0)]
			for k, u := range x0 {
				s += u * w[k]
				t += x1[k] * w[k]
			}
			c0[j], c1[j] = s, t
		}
	}
	if i < a.Rows {
		x, c := a.Row(i), dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			var s0, s1, s2, s3 float64
			if bias != nil {
				s0, s1, s2, s3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
			}
			w0, w1, w2, w3 := b.Row(j)[:len(x)], b.Row(j + 1)[:len(x)], b.Row(j + 2)[:len(x)], b.Row(j + 3)[:len(x)]
			for k, u := range x {
				s0 += u * w0[k]
				s1 += u * w1[k]
				s2 += u * w2[k]
				s3 += u * w3[k]
			}
			c[j], c[j+1], c[j+2], c[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			var s float64
			if bias != nil {
				s = bias[j]
			}
			c[j] = DotSeed(s, x, b.Row(j))
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

// gradAccumGo is GradAccumInto's portable kernel. The loops are
// interchanged: each dw cell is loaded once, carried in a register across
// the whole r sweep, and stored once. Outputs go in pairs × 4 inputs (8
// accumulators); an odd last output pairs with itself, and the inputs%4
// tail runs 2 × 1.
//
//nnwc:hotpath
func gradAccumGo(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	dd, xd := delta.Data, in.Data
	outs, ins, n := delta.Cols, in.Cols, delta.Rows*delta.Cols
	for o := 0; o < outs; o += 2 {
		o1 := min(o+1, outs-1)
		b0, b1 := db[o], db[o1]
		for r := 0; r < n; r += outs {
			b0 += scale * dd[r+o]
			b1 += scale * dd[r+o1]
		}
		db[o], db[o1] = b0, b1
		w0, w1 := dw.Row(o), dw.Row(o1)
		j := 0
		for ; j+4 <= ins; j += 4 {
			p0, p1, p2, p3 := w0[j], w0[j+1], w0[j+2], w0[j+3]
			q0, q1, q2, q3 := w1[j], w1[j+1], w1[j+2], w1[j+3]
			for r, xi := 0, j; r < n; r, xi = r+outs, xi+ins {
				d0, d1 := dd[r+o], dd[r+o1]
				x := xd[xi : xi+4 : xi+4]
				p0 += scale * (d0 * x[0])
				q0 += scale * (d1 * x[0])
				p1 += scale * (d0 * x[1])
				q1 += scale * (d1 * x[1])
				p2 += scale * (d0 * x[2])
				q2 += scale * (d1 * x[2])
				p3 += scale * (d0 * x[3])
				q3 += scale * (d1 * x[3])
			}
			w0[j], w0[j+1], w0[j+2], w0[j+3] = p0, p1, p2, p3
			w1[j], w1[j+1], w1[j+2], w1[j+3] = q0, q1, q2, q3
		}
		for ; j < ins; j++ {
			p, q := w0[j], w1[j]
			for r, xi := 0, j; r < n; r, xi = r+outs, xi+ins {
				x := xd[xi]
				p += scale * (dd[r+o] * x)
				q += scale * (dd[r+o1] * x)
			}
			w0[j], w1[j] = p, q
		}
	}
}
