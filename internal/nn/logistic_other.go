//go:build !amd64

package nn

import "math"

// logisticRow writes out[i] = 1/(1+exp(−α·pre[i])).
//
//nnwc:hotpath
func logisticRow(alpha float64, pre, out []float64) {
	for i, v := range pre {
		out[i] = 1 / (1 + math.Exp(-alpha*v))
	}
}

// scaleByLogisticDeriv multiplies dst[i] by α·y[i]·(1−y[i]), Logistic.Deriv's
// expression.
//
//nnwc:hotpath
func scaleByLogisticDeriv(alpha float64, y, dst []float64) {
	for i := range dst {
		dst[i] *= alpha * y[i] * (1 - y[i])
	}
}
