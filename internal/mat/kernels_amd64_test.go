package mat

import (
	"testing"

	"nnwc/internal/cpuid"
)

func init() {
	if useAVX {
		kernelImpls = append(kernelImpls, kernelImpl{"avx", func(dst, a, b *Matrix, bias []float64) *Matrix {
			mulTransBiasAVX(dst.Reshape(a.Rows, b.Rows), a, b, bias)
			return dst
		}, MulInto, GradAccumInto})
	}
}

// TestMatKernelSelection checks the gate: the assembly runs exactly when
// CPUID reports AVX with the YMM state enabled.
func TestMatKernelSelection(t *testing.T) {
	if useAVX != cpuid.AVX {
		t.Fatalf("AVX kernels selected = %v, want %v (CPUID AVX with YMM state)", useAVX, cpuid.AVX)
	}
	t.Logf("AVX kernels selected = %v", useAVX)
}
