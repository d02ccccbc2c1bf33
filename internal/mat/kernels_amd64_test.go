package mat

import (
	"fmt"
	"testing"

	"nnwc/internal/cpuid"
	"nnwc/internal/rng"
)

// asmWidths are the widths of assembly, each with the probe result that
// lets the host run it and the reason its cases skip where it cannot.
var asmWidths = []struct {
	name string
	w    int
	ok   bool
	skip string
}{
	{"avx", 4, cpuid.AVX, "CPU lacks AVX or the OS does not save the YMM state"},
	{"avx512", 8, cpuid.AVX512, "CPU lacks AVX512F/AVX512DQ or the OS does not save the opmask and ZMM state"},
}

func init() {
	for _, k := range asmWidths {
		impl := kernelImpl{name: k.name, mulTransBias: func(dst, a, b *Matrix, bias []float64) *Matrix {
			mulTransBiasLanes(dst.Reshape(a.Rows, b.Rows), a, b, bias, k.w)
			return dst
		}, mul: func(dst, a, b *Matrix) *Matrix {
			mulLanes(dst.Reshape(a.Rows, b.Cols), a, b, k.w)
			return dst
		}, gradAccum: func(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
			gradAccumLanes(dw, db, delta, in, scale, k.w)
		}}
		if !k.ok {
			impl.skip = k.skip
		}
		kernelImpls = append(kernelImpls, impl)
	}
}

// TestMatKernelSelection checks the gate: the exported kernels run the
// widest assembly the probe allows, eight lanes with AVX-512, four with
// AVX, and the Go kernels without either.
func TestMatKernelSelection(t *testing.T) {
	want := 0
	switch {
	case cpuid.AVX512:
		want = 8
	case cpuid.AVX:
		want = 4
	}
	if width != want {
		t.Fatalf("kernel width = %d, want %d (CPUID AVX %v, AVX512 %v)", width, want, cpuid.AVX, cpuid.AVX512)
	}
	t.Logf("mat kernels selected: %s", map[int]string{0: "Go", 4: "AVX", 8: "AVX512"}[width])
}

// TestKernelShapesCoverLiveAccumulators checks that kernelShapes give the
// leftover-output and db calls of gradAccumLanes every live-accumulator
// count, 1 through 4, at either width.
func TestKernelShapesCoverLiveAccumulators(t *testing.T) {
	for _, k := range asmWidths {
		left, bias := map[int]bool{}, map[int]bool{}
		for _, sh := range kernelShapes {
			outs, ins, w := sh.n, sh.k, k.w
			for o := 0; o < outs; o += 4 * w {
				bias[accums(outs-o, w)] = true
			}
			if outs%4 != 0 && !(w == 8 && ins >= 4 && ins < 8) {
				for j := 0; j < ins; j += 4 * w {
					left[accums(ins-j, w)] = true
				}
			}
		}
		for a := 1; a <= 4; a++ {
			if !left[a] || !bias[a] {
				t.Errorf("%s: %d live accumulators: leftover output %v, db %v", k.name, a, left[a], bias[a])
			}
		}
	}
}

// BenchmarkFoldKernelWidths times each width of assembly this host runs at
// a Table 2 fold's shapes (259 training rows, a 4-16-5 network), so the
// widths compare on one host.
func BenchmarkFoldKernelWidths(b *testing.B) {
	src := rng.New(17)
	const rows = 259
	for _, k := range asmWidths {
		if !k.ok {
			continue
		}
		for _, sh := range []struct{ in, out int }{{4, 16}, {16, 5}} {
			x := randMatrix(src, rows, sh.in)
			w := randMatrix(src, sh.out, sh.in)
			delta := randMatrix(src, rows, sh.out)
			dw, db := New(sh.out, sh.in), make([]float64, sh.out)
			dst, bias := New(rows, sh.out), delta.Row(0)
			name := fmt.Sprintf("%dx%dx%d/%s", rows, sh.in, sh.out, k.name)
			b.Run("MulTransBias/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mulTransBiasLanes(dst, x, w, bias, k.w)
				}
			})
			b.Run("GradAccum/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gradAccumLanes(dw, db, delta, x, 1.0/rows, k.w)
				}
			})
		}
		delta, w, dst := randMatrix(src, rows, 5), randMatrix(src, 5, 16), New(rows, 16)
		b.Run("Mul/259x5x16/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulLanes(dst, delta, w, k.w)
			}
		})
	}
}
