package nn

import (
	"math"

	"nnwc/internal/cpuid"
)

// logisticAVX2 is the AVX2+FMA logistic kernel (logistic_amd64.s). It
// writes out[:n] = 1/(1+exp(negAlpha·pre[:n])) for the largest n ≤
// len(pre)&^3 whose 4-element blocks are all in range, and returns n.
//
//go:noescape
func logisticAVX2(negAlpha float64, pre, out []float64) int

// logisticAVX512 is logisticAVX2 eight lanes wide (logistic_amd64.s), the
// len%8 tail included under an opmask. It writes out[:n] for the largest n
// that is len(pre) or a multiple of 8 whose 8-element blocks are all in
// range, and returns n.
//
//go:noescape
func logisticAVX512(negAlpha float64, pre, out []float64) int

// logisticDerivAVX is the AVX kernel of the logistic derivative sweep
// (logistic_amd64.s). It scales dst[:n] by (α·y)·(1−y) for the largest
// n ≤ len(dst)&^3 whose 4-element blocks hold no NaN, and returns n.
//
//go:noescape
func logisticDerivAVX(alpha float64, y, dst []float64) int

// logisticProbe holds the self-check's inputs. The first ten are values
// where math.Exp's FMA and non-FMA branches give different logistics
// (TestLogisticProbeDiscriminates); the last two sit at the ends of the
// kernel's range.
var logisticProbe = [...]float64{-7.99, -3.35, -1.22, -0.49, -0.01, 0.19, 0.51, 0.85, 1.01, 1.26, -7.09782712893384e+02, 700}

// useLogisticZMM and useLogisticKernel are decided once: the CPU must
// support the kernel, and the kernel must reproduce the scalar logistic bit
// for bit on the probe. The self-check is what ties the kernels to
// math.Exp's avxfma branch: under GODEBUG=cpu.fma=off math.Exp takes its
// non-FMA branch while CPUID still reports FMA. The 8-lane kernel runs
// where it is selected, else the 4-lane one.
var (
	useLogisticZMM    = cpuid.AVX512 && logisticSelfCheck(logisticAVX512)
	useLogisticKernel = cpuid.AVX2FMA && logisticSelfCheck(logisticAVX2)
)

func logisticSelfCheck(kernel func(negAlpha float64, pre, out []float64) int) bool {
	var out [len(logisticProbe)]float64
	if kernel(-1, logisticProbe[:], out[:]) != len(out) {
		return false
	}
	for i, v := range logisticProbe {
		if math.Float64bits(out[i]) != math.Float64bits(Logistic{Alpha: 1}.Eval(v)) {
			return false
		}
	}
	return true
}

// logisticRow writes out[i] = 1/(1+exp(−α·pre[i])). The row goes through
// the selected kernel; the rest of it from the first block with an
// out-of-range lane, and with the 4-lane kernel the len%4 tail, run the
// scalar loop, whose bits the kernels reproduce.
//
//nnwc:hotpath
func logisticRow(alpha float64, pre, out []float64) {
	n := 0
	switch {
	case useLogisticZMM:
		n = logisticAVX512(-alpha, pre, out[:len(pre)])
	case useLogisticKernel:
		n = logisticAVX2(-alpha, pre, out[:len(pre)])
	}
	for i := n; i < len(pre); i++ {
		out[i] = 1 / (1 + math.Exp(-alpha*pre[i]))
	}
}

// scaleByLogisticDeriv multiplies dst[i] by α·y[i]·(1−y[i]), Logistic.Deriv's
// expression. Blocks of four go through the AVX kernel, which computes it
// lane for lane; the len%4 tail, and the rest of the row from the first
// block with a NaN, run the scalar loop.
//
//nnwc:hotpath
func scaleByLogisticDeriv(alpha float64, y, dst []float64) {
	n := 0
	if cpuid.AVX {
		n = logisticDerivAVX(alpha, y[:len(dst)], dst)
	}
	for i := n; i < len(dst); i++ {
		dst[i] *= alpha * y[i] * (1 - y[i])
	}
}
