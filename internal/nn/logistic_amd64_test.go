package nn

import (
	"math"
	"testing"

	"nnwc/internal/cpuid"
	"nnwc/internal/rng"
)

// The constants and the two branches below transcribe math.archExp
// ($GOROOT/src/math/exp_amd64.s) for x in the kernel's range, where
// neither the overflow nor the denormal exit is taken before the final
// scaling.
const (
	archLog2E = 1.4426950408889634073599246810018920
	archLn2U  = 0.69314718055966295651160180568695068359375
	archLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// archExpPoly lists the Taylor coefficients in Horner order.
var archExpPoly = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// archExpFMA is archExp's avxfma branch; math.FMA fuses exactly on any host.
func archExpFMA(x float64) float64 {
	k := math.RoundToEven(archLog2E * x)
	r := math.FMA(-k, archLn2U, x)
	r = math.FMA(-k, archLn2L, r)
	r *= 0.0625
	p := archExpPoly[0]
	for _, c := range archExpPoly[1:] {
		p = math.FMA(p, r, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = math.FMA(r+2, r, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// archExpNoFMA is archExp's branch for hosts without FMA (or with
// GODEBUG=cpu.fma=off): every product rounds before its sum.
func archExpNoFMA(x float64) float64 {
	k := math.RoundToEven(archLog2E * x)
	r := x - k*archLn2U
	r -= k * archLn2L
	r *= 0.0625
	p := archExpPoly[0]
	for _, c := range archExpPoly[1:] {
		p = p*r + c
	}
	r *= p
	for i := 0; i < 4; i++ {
		r *= r + 2
	}
	r++
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// mathExpOnFMABranch reports whether math.Exp agrees with its FMA branch
// on the whole probe.
func mathExpOnFMABranch() bool {
	for _, v := range logisticProbe {
		if math.Float64bits(math.Exp(-v)) != math.Float64bits(archExpFMA(-v)) {
			return false
		}
	}
	return true
}

// TestLogisticProbeDiscriminates checks the self-check can tell math.Exp's
// two branches apart: the transcriptions match math.Exp, whichever branch
// this process runs, and give different logistics on the probe's first
// ten inputs.
func TestLogisticProbeDiscriminates(t *testing.T) {
	for i, v := range logisticProbe {
		fma, plain := archExpFMA(-v), archExpNoFMA(-v)
		if e := math.Float64bits(math.Exp(-v)); e != math.Float64bits(fma) && e != math.Float64bits(plain) {
			t.Fatalf("math.Exp(%v) = %v matches neither branch (FMA %v, non-FMA %v)", -v, math.Exp(-v), fma, plain)
		}
		if i < 10 && math.Float64bits(1/(1+fma)) == math.Float64bits(1/(1+plain)) {
			t.Errorf("probe %v: both branches give logistic %v", v, 1/(1+fma))
		}
	}
}

// logisticKernels are the vectorized logistics: each with its lane count,
// whether it finishes the len%lanes tail itself, and the probe result that
// lets the host run it.
var logisticKernels = []struct {
	name   string
	kernel func(negAlpha float64, pre, out []float64) int
	lanes  int
	tail   bool
	ok     bool
	skip   string
}{
	{"avx2", logisticAVX2, 4, false, cpuid.AVX2FMA, "CPU lacks AVX2+FMA"},
	{"avx512", logisticAVX512, 8, true, cpuid.AVX512, "CPU lacks AVX512F/AVX512DQ or the OS does not save the opmask and ZMM state"},
}

func init() {
	onFMA := mathExpOnFMABranch()
	for _, k := range logisticKernels {
		impl := logisticImpl{name: k.name, row: func(alpha float64, pre, out []float64) {
			for i := k.kernel(-alpha, pre, out[:len(pre)]); i < len(pre); i++ {
				out[i] = 1 / (1 + math.Exp(-alpha*pre[i]))
			}
		}}
		switch {
		case !k.ok:
			impl.skip = k.skip
		case !onFMA:
			impl.skip = "math.Exp is off its FMA branch, which the kernel replicates"
		}
		logisticImpls = append(logisticImpls, impl)
	}
}

// TestLogisticKernelSelection checks the gate: each kernel is selected
// exactly when the CPU supports it and math.Exp takes the branch it
// replicates, and EvalRow runs the 8-lane one where both are.
func TestLogisticKernelSelection(t *testing.T) {
	onFMA := mathExpOnFMABranch()
	if want := cpuid.AVX2FMA && onFMA; useLogisticKernel != want {
		t.Fatalf("AVX2 kernel selected = %v, want %v (AVX2+FMA %v, math.Exp on its FMA branch %v)",
			useLogisticKernel, want, cpuid.AVX2FMA, onFMA)
	}
	if want := cpuid.AVX512 && onFMA; useLogisticZMM != want {
		t.Fatalf("AVX-512 kernel selected = %v, want %v (AVX512 %v, math.Exp on its FMA branch %v)",
			useLogisticZMM, want, cpuid.AVX512, onFMA)
	}
	kernel := "scalar"
	switch {
	case useLogisticZMM:
		kernel = "AVX512"
	case useLogisticKernel:
		kernel = "AVX2FMA"
	}
	t.Logf("logistic kernel selected: %s (AVX2+FMA %v, AVX512 %v, math.Exp on its FMA branch %v)", kernel, cpuid.AVX2FMA, cpuid.AVX512, onFMA)
}

// TestLogisticKernelMatchesFMABranch runs each kernel directly, selected
// or not, against the transcribed avxfma branch across its whole range,
// and checks it stops before the first block holding an out-of-range lane.
func TestLogisticKernelMatchesFMABranch(t *testing.T) {
	for _, k := range logisticKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.ok {
				t.Skip(k.skip)
			}
			testLogisticKernelMatchesFMABranch(t, k.kernel, k.lanes, k.tail)
		})
	}
}

func testLogisticKernelMatchesFMABranch(t *testing.T, kernel func(negAlpha float64, pre, out []float64) int, lanes int, tail bool) {
	src := rng.New(42)
	for _, alpha := range []float64{1, 0.5, 2, -1} {
		pre := make([]float64, 4096+5)
		for i := range pre {
			x := src.Uniform(-700, expOverflow)
			if i%4 == 1 {
				x = 4 * src.Norm()
			}
			pre[i] = x / -alpha
		}
		for i, x := range logisticEdgesX[:4] {
			pre[i] = x / -alpha
		}
		copy(pre[4:], logisticSpecials[:8])
		copy(pre[len(pre)-8:], logisticSpecials[:8])
		out := make([]float64, len(pre))
		want := len(pre)
		if !tail {
			want &^= lanes - 1
		}
		if n := kernel(-alpha, pre, out); n != want {
			t.Fatalf("α=%v: kernel wrote %d of %d in-range elements, want %d", alpha, n, len(pre), want)
		}
		for i, v := range pre[:want] {
			if want := 1 / (1 + archExpFMA(-alpha*v)); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("α=%v v=%v: kernel %v, FMA branch %v", alpha, v, out[i], want)
			}
		}
	}
	out := make([]float64, 16)
	for _, bad := range append(logisticEdgesX[4:], logisticSpecials[8:]...) {
		for pos := 0; pos < 11; pos++ {
			pre := make([]float64, 11)
			pre[pos] = -bad
			if n, want := kernel(-1, pre, out), pos&^(lanes-1); n != want {
				t.Fatalf("x=%v at %d: kernel wrote %d elements, want %d", bad, pos, n, want)
			}
		}
	}
}

// TestLogisticDerivKernelStopsAtNaN runs the derivative kernel directly: it
// takes every block of a NaN-free row, ±Inf lanes included, and stops
// before the first block where y or dst holds a NaN.
func TestLogisticDerivKernelStopsAtNaN(t *testing.T) {
	if !cpuid.AVX {
		t.Skip("CPU lacks AVX")
	}
	for n := 0; n <= 11; n++ {
		y, dst := make([]float64, n), make([]float64, n)
		for i := range y {
			y[i], dst[i] = derivSpecials[i%9], derivSpecials[(i+4)%9]
		}
		if got := logisticDerivAVX(1.7, y, dst); got != n&^3 {
			t.Fatalf("n=%d NaN-free: kernel wrote %d elements, want %d", n, got, n&^3)
		}
	}
	for _, nan := range derivSpecials[9:] {
		for pos := 0; pos < 11; pos++ {
			for _, inY := range []bool{true, false} {
				y, dst := make([]float64, 11), make([]float64, 11)
				if inY {
					y[pos] = nan
				} else {
					dst[pos] = nan
				}
				if got, want := logisticDerivAVX(1.7, y, dst), pos&^3; got != want {
					t.Fatalf("NaN %#x at %d (in y: %v): kernel wrote %d elements, want %d", math.Float64bits(nan), pos, inY, got, want)
				}
			}
		}
	}
}

// BenchmarkLogisticKernels times each kernel this host runs over one
// hidden layer of a Table 2 fold, 259 training rows × 16 hidden units:
// in one call, and row by row as perfbench's nn.activation probe calls it.
func BenchmarkLogisticKernels(b *testing.B) {
	src := rng.New(1)
	pre := make([]float64, 259*16)
	for i := range pre {
		pre[i] = 2 * src.Norm()
	}
	out := make([]float64, len(pre))
	for _, k := range logisticKernels {
		if !k.ok {
			continue
		}
		b.Run("layer/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.kernel(-1, pre, out)
			}
		})
		b.Run("rows/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < len(pre); r += 16 {
					k.kernel(-1, pre[r:r+16], out[r:r+16])
				}
			}
		})
	}
}
