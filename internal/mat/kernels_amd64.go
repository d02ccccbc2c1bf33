package mat

import "nnwc/internal/cpuid"

//go:noescape
func mulRowsAVX(dst *float64, dstRow int, a *float64, rows, k int, w *float64, wRow int, seed *[4]float64, lanes int, skipZero bool)

//go:noescape
func gradAccumAVX(dw *float64, dwStep int, d *float64, dStep int, x *float64, xStep int, rows, dRow, xRow int, scale float64, l0, l1, l2, l3 int)

//go:noescape
func biasAccumAVX(db *float64, d *float64, rows, dRow int, scale float64, l0, l1, l2, l3 int)

// useAVX is decided once: the CPU has AVX and the OS saves the YMM state.
var useAVX = cpuid.AVX

const (
	// mulTransBiasMinRows is the row count from which MulTransBiasInto
	// takes the AVX kernel; below it, building the Wᵀ tiles costs more
	// than the lanes save (DESIGN.md §13, BenchmarkForwardBatchRows).
	mulTransBiasMinRows = 4
	// maxTileK bounds the inputs of a Wᵀ tile, which lives on the stack;
	// wider layers take the Go kernel.
	maxTileK = 64
)

//nnwc:hotpath
func mulTransBiasInto(dst, a, b *Matrix, bias []float64) {
	if useAVX && a.Rows >= mulTransBiasMinRows && a.Cols > 0 && a.Cols <= maxTileK {
		mulTransBiasAVX(dst, a, b, bias)
	} else {
		mulTransBiasGo(dst, a, b, bias)
	}
}

// mulTransBiasAVX runs the AVX kernel at any row count. For each block of
// 4 outputs it copies b's rows into a k×4 tile, tile[4k+l] = b[j+l][k],
// and sweeps every row of a over it.
//
//nnwc:hotpath
func mulTransBiasAVX(dst, a, b *Matrix, bias []float64) {
	var tile [4 * maxTileK]float64
	var seed [4]float64
	for j := 0; j < b.Rows; j += 4 {
		n := min(b.Rows-j, 4)
		for l := 0; l < n; l++ {
			for k, v := range b.Row(j + l) {
				tile[4*k+l] = v
			}
			if bias != nil {
				seed[l] = bias[j+l]
			}
		}
		mulRowsAVX(&dst.Data[j], dst.Cols, &a.Data[0], a.Rows, a.Cols, &tile[0], 4, &seed, n, false)
	}
}

//nnwc:hotpath
func mulInto(dst, a, b *Matrix) {
	if !useAVX || a.Cols == 0 {
		mulGo(dst, a, b)
		return
	}
	var zero [4]float64
	for j := 0; j < b.Cols; j += 4 {
		mulRowsAVX(&dst.Data[j], dst.Cols, &a.Data[0], a.Rows, a.Cols, &b.Data[j], b.Cols, &zero, min(b.Cols-j, 4), true)
	}
}

// gradAccumInto runs dw in blocks of 4 outputs × 4 inputs, each leftover
// output as 1 × 16 inputs, and db 16 outputs per call.
//
//nnwc:hotpath
func gradAccumInto(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	outs, ins, n := delta.Cols, in.Cols, delta.Rows
	if !useAVX || n == 0 || outs == 0 || ins == 0 {
		gradAccumGo(dw, db, delta, in, scale)
		return
	}
	o := 0
	for ; o+4 <= outs; o += 4 {
		for j := 0; j < ins; j += 4 {
			c := lanes(ins - j)
			gradAccumAVX(&dw.Data[o*ins+j], ins, &delta.Data[o], 1, &in.Data[j], 0, n, outs, ins, scale, c, c, c, c)
		}
	}
	for ; o < outs; o++ {
		for j := 0; j < ins; j += 16 {
			r := ins - j
			gradAccumAVX(&dw.Data[o*ins+j], 4, &delta.Data[o], 0, &in.Data[j], 4, n, outs, ins, scale, lanes(r), lanes(r-4), lanes(r-8), lanes(r-12))
		}
	}
	for o := 0; o < outs; o += 16 {
		r := outs - o
		biasAccumAVX(&db[o], &delta.Data[o], n, outs, scale, lanes(r), lanes(r-4), lanes(r-8), lanes(r-12))
	}
}

// lanes clamps a remaining element count to a register's 0…4 lanes.
func lanes(n int) int { return min(max(n, 0), 4) }
