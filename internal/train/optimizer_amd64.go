package train

import "nnwc/internal/cpuid"

// rpropStepAVX512 is rpropStepGo eight weights wide (optimizer_amd64.s),
// for len(p), len(step), len(prev) >= len(grad) and positive finite
// hyperparameters.
//
//go:noescape
func rpropStepAVX512(p, step, prev, grad []float64, etaPlus, etaMinus, stepMin, stepMax float64)

// rpropZMM selects the AVX-512 RPROP kernel, decided once from the CPU
// probe. Tests clear it to run the Go loop on a host that has the kernel.
var rpropZMM = cpuid.AVX512
