package mat

import (
	"math"

	"nnwc/internal/cpuid"
)

//go:noescape
func mulRowsAVX(dst *float64, dstRow int, a *float64, rows, k int, w *float64, wRow int, seed *float64, lanes int, skipZero bool)

//go:noescape
func gradAccumAVX(dw *float64, dwStep int, d *float64, dStep int, x *float64, xStep int, rows, dRow, xRow int, scale float64, l0, l1, l2, l3, accs int)

//go:noescape
func biasAccumAVX(db *float64, d *float64, rows, dRow int, scale float64, l0, l1, l2, l3, accs int)

//go:noescape
func mulRowsAVX512(dst *float64, dstRow int, a *float64, rows, k int, w *float64, wRow int, seed *float64, lanes int, skipZero bool)

//go:noescape
func gradAccumAVX512(dw *float64, dwStep int, d *float64, dStep int, x *float64, xStep int, rows, dRow, xRow int, scale float64, l0, l1, l2, l3, accs int)

//go:noescape
func gradAccumOutsAVX512(acc *float64, d *float64, x *float64, rows, dRow, xRow int, scale float64, lanes int)

//go:noescape
func biasAccumAVX512(db *float64, d *float64, rows, dRow int, scale float64, l0, l1, l2, l3, accs int)

// width is the lane count of the kernels the exported functions run,
// decided once: 8 (AVX-512) when the CPU has AVX512F and AVX512DQ and the
// OS saves the opmask and ZMM state, else 4 (AVX) when it has AVX and the
// OS saves the YMM state, else 0 (the Go kernels).
var width = func() int {
	switch {
	case cpuid.AVX512:
		return 8
	case cpuid.AVX:
		return 4
	}
	return 0
}()

const (
	// mulTransBiasMinRows is the row count from which MulTransBiasInto
	// takes the assembly; below it, building the Wᵀ tiles costs more than
	// the lanes save (DESIGN.md §13, BenchmarkForwardBatchRows).
	mulTransBiasMinRows = 4
	// maxTileK bounds the inputs of a Wᵀ tile, which lives on the stack;
	// wider layers take the Go kernel.
	maxTileK = 64
)

//nnwc:hotpath
func mulTransBiasInto(dst, a, b *Matrix, bias []float64) {
	if width > 0 && a.Rows >= mulTransBiasMinRows && a.Cols > 0 && a.Cols <= maxTileK {
		mulTransBiasLanes(dst, a, b, bias, width)
	} else {
		mulTransBiasGo(dst, a, b, bias)
	}
}

// mulTransBiasLanes runs the assembly of w lanes (4: AVX, 8: AVX-512) at
// any row count. For each block of w outputs it copies b's rows into a k×w
// tile, tile[w·k+l] = b[j+l][k], and sweeps every row of a over it.
//
//nnwc:hotpath
func mulTransBiasLanes(dst, a, b *Matrix, bias []float64, w int) {
	var tile [8 * maxTileK]float64
	var seed [8]float64
	for j := 0; j < b.Rows; j += w {
		n := min(b.Rows-j, w)
		for l := 0; l < n; l++ {
			for k, v := range b.Row(j + l) {
				tile[w*k+l] = v
			}
			if bias != nil {
				seed[l] = bias[j+l]
			}
		}
		if w == 8 {
			mulRowsAVX512(&dst.Data[j], dst.Cols, &a.Data[0], a.Rows, a.Cols, &tile[0], 8, &seed[0], n, false)
		} else {
			mulRowsAVX(&dst.Data[j], dst.Cols, &a.Data[0], a.Rows, a.Cols, &tile[0], 4, &seed[0], n, false)
		}
	}
}

//nnwc:hotpath
func mulInto(dst, a, b *Matrix) {
	if width == 0 || a.Cols == 0 {
		mulGo(dst, a, b)
		return
	}
	mulLanes(dst, a, b, width)
}

// mulLanes runs MulInto's assembly of w lanes over blocks of w columns.
// The exact-zero skip changes a cell only through a term 0·b with b ±Inf
// or NaN. Any other such term is ±0, and adding ±0 leaves an accumulator
// that starts at +0 as it was (it never becomes −0). So where b is all
// finite, the kernel runs without the skip's compare on every term.
//
//nnwc:hotpath
func mulLanes(dst, a, b *Matrix, w int) {
	var zero [8]float64
	skip := !finite(b.Data[:b.Rows*b.Cols])
	for j := 0; j < b.Cols; j += w {
		n := min(b.Cols-j, w)
		if w == 8 {
			mulRowsAVX512(&dst.Data[j], dst.Cols, &a.Data[0], a.Rows, a.Cols, &b.Data[j], b.Cols, &zero[0], n, skip)
		} else {
			mulRowsAVX(&dst.Data[j], dst.Cols, &a.Data[0], a.Rows, a.Cols, &b.Data[j], b.Cols, &zero[0], n, skip)
		}
	}
}

// finite reports whether no value of v is ±Inf or NaN.
func finite(v []float64) bool {
	for _, x := range v {
		if !(math.Abs(x) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

//nnwc:hotpath
func gradAccumInto(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	if width == 0 || delta.Rows == 0 || delta.Cols == 0 || in.Cols == 0 {
		gradAccumGo(dw, db, delta, in, scale)
		return
	}
	gradAccumLanes(dw, db, delta, in, scale, width)
}

// gradAccumLanes runs GradAccumInto's assembly of w lanes: dw in blocks of
// 4 outputs × w inputs, each leftover output as 1 × up to 4w inputs, and
// db up to 4w outputs per call. The leftover and db calls run only the
// accumulators that hold live lanes: a 16-5 layer's db takes 1 of the 4,
// a 32-input leftover output all 4, a 16-input one 2 at 8 lanes. At 8
// lanes, a layer of 4…7 inputs takes the transposed block (gradAccumOuts)
// for all of dw instead.
//
//nnwc:hotpath
func gradAccumLanes(dw *Matrix, db []float64, delta, in *Matrix, scale float64, w int) {
	outs, ins, n := delta.Cols, in.Cols, delta.Rows
	grad, bias := gradAccumAVX, biasAccumAVX
	if w == 8 {
		grad, bias = gradAccumAVX512, biasAccumAVX512
	}
	o := 0
	if w == 8 && ins >= 4 && ins < 8 {
		gradAccumOuts(dw, delta, in, scale)
		o = outs // every output is done
	}
	for ; o+4 <= outs; o += 4 {
		for j := 0; j < ins; j += w {
			c := lanes(ins-j, w)
			grad(&dw.Data[o*ins+j], ins, &delta.Data[o], 1, &in.Data[j], 0, n, outs, ins, scale, c, c, c, c, 4)
		}
	}
	for ; o < outs; o++ {
		for j := 0; j < ins; j += 4 * w {
			r := ins - j
			grad(&dw.Data[o*ins+j], w, &delta.Data[o], 0, &in.Data[j], w, n, outs, ins, scale, lanes(r, w), lanes(r-w, w), lanes(r-2*w, w), lanes(r-3*w, w), accums(r, w))
		}
	}
	for o := 0; o < outs; o += 4 * w {
		r := outs - o
		bias(&db[o], &delta.Data[o], n, outs, scale, lanes(r, w), lanes(r-w, w), lanes(r-2*w, w), lanes(r-3*w, w), accums(r, w))
	}
}

// gradAccumOuts runs dw through the 8-lane transposed block, lanes over 8
// outputs and 4 inputs, for layers whose 4…7 inputs would leave half a
// register idle with lanes over inputs. The block goes through a stack
// tile; a last, partial group of inputs starts at ins−4, and the inputs
// it repeats are left out when it is copied back.
//
//nnwc:hotpath
func gradAccumOuts(dw *Matrix, delta, in *Matrix, scale float64) {
	outs, ins := delta.Cols, in.Cols
	var tile [32]float64
	for o := 0; o < outs; o += 8 {
		n := min(outs-o, 8)
		for j := 0; j < ins; j += 4 {
			start := min(j, ins-4)
			for a := j - start; a < 4; a++ {
				for l := 0; l < n; l++ {
					tile[8*a+l] = dw.Data[(o+l)*ins+start+a]
				}
			}
			gradAccumOutsAVX512(&tile[0], &delta.Data[o], &in.Data[start], delta.Rows, outs, ins, scale, n)
			for a := j - start; a < 4; a++ {
				for l := 0; l < n; l++ {
					dw.Data[(o+l)*ins+start+a] = tile[8*a+l]
				}
			}
		}
	}
}

// lanes clamps a remaining element count to a register's 0…w lanes.
func lanes(n, w int) int { return min(max(n, 0), w) }

// accums is the number of the 4 accumulators of w lanes that n > 0
// remaining elements fill: ⌈n/w⌉, at most 4.
func accums(n, w int) int { return min((n+w-1)/w, 4) }
