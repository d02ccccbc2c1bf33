//go:build !amd64

package train

// Off amd64 the Go loop runs.
var rpropZMM = false

func rpropStepAVX512(p, step, prev, grad []float64, etaPlus, etaMinus, stepMin, stepMax float64) {
	rpropStepGo(p, step, prev, grad, etaPlus, etaMinus, stepMin, stepMax)
}
