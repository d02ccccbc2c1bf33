//go:build !amd64

package mat

// Off amd64 the portable Go kernels run.
func mulTransBiasInto(dst, a, b *Matrix, bias []float64) { mulTransBiasGo(dst, a, b, bias) }
func mulInto(dst, a, b *Matrix)                          { mulGo(dst, a, b) }
func gradAccumInto(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	gradAccumGo(dw, db, delta, in, scale)
}
