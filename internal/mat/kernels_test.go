package mat

import (
	"fmt"
	"math"
	"testing"

	"nnwc/internal/rng"
)

// naiveDotSeed is the straight-line reference the unrolled kernels must
// reproduce bit for bit: single accumulator, ascending index.
func naiveDotSeed(s float64, a, b []float64) float64 {
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func randMatrix(src *rng.Source, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Uniform(-2, 2)
	}
	return m
}

// kernelShapes straddle every register block boundary: m runs 1…9 (every
// 4-row block tail, on both sides of MulTransBiasInto's row gate), 16, and
// a Table 2 fold's training sizes (259 odd, 260 even); n runs 1…9, 16, 17
// and 33 so every n%4 and n%8 tail, odd output counts, a second db call of
// either width, and db calls of 1, 2, 3 and 4 live accumulators at either
// width appear; k runs across the 4- and 8-wide tiles, 4 and 6 take the
// 8-lane transposed gradient block (6 with a last input group that
// repeats two inputs), 1…33 give a leftover output's call 1, 2, 3 and 4
// live accumulators at either width, and 33 takes a leftover output past
// its first call of either width.
var kernelShapes = func() (shapes []struct{ m, n, k int }) {
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 259, 260} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33} {
			for _, k := range []int{1, 3, 4, 6, 9, 12, 16, 17, 24, 33} {
				shapes = append(shapes, struct{ m, n, k int }{m, n, k})
			}
		}
	}
	return shapes
}()

// kernelImpl is one implementation of the three kernels under test; its
// cases skip, logging skip, where this host cannot run it.
type kernelImpl struct {
	name         string
	skip         string
	mulTransBias func(dst, a, b *Matrix, bias []float64) *Matrix
	mul          func(dst, a, b *Matrix) *Matrix
	gradAccum    func(dw *Matrix, db []float64, delta, in *Matrix, scale float64)
}

// kernelImpls holds the exported kernels, which dispatch to the assembly
// where it is selected. The portable Go kernels are the references every
// case compares with; kernels_amd64_test.go adds each width of assembly
// without the row gate.
var kernelImpls = []kernelImpl{
	{"dispatch", "", MulTransBiasInto, MulInto, GradAccumInto},
}

// forEachImpl runs f as a subtest per kernel implementation.
func forEachImpl(t *testing.T, f func(t *testing.T, impl kernelImpl)) {
	for _, impl := range kernelImpls {
		t.Run(impl.name, func(t *testing.T) {
			if impl.skip != "" {
				t.Skip(impl.skip)
			}
			f(t, impl)
		})
	}
}

// sameFloat reports whether x and y are the same IEEE-754 value: equal bits
// (so +0 and −0 differ), or both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// requireSame fails unless got and want hold the same values bit for bit.
func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s [%d]: got %v (%x) want %v (%x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestDotSeedMatchesNaive(t *testing.T) {
	src := rng.New(11)
	for n := 0; n <= 19; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = src.Uniform(-3, 3), src.Uniform(-3, 3)
		}
		seed := src.Uniform(-1, 1)
		if got, want := DotSeed(seed, a, b), naiveDotSeed(seed, a, b); got != want {
			t.Fatalf("DotSeed len %d: got %x want %x", n, got, want)
		}
		if got, want := Dot(a, b), naiveDotSeed(0, a, b); got != want {
			t.Fatalf("Dot len %d: got %x want %x", n, got, want)
		}
	}
}

func TestAXPYMatchesNaive(t *testing.T) {
	src := rng.New(12)
	for n := 0; n <= 19; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		want := make([]float64, n)
		for i := range x {
			x[i] = src.Uniform(-3, 3)
			y[i] = src.Uniform(-3, 3)
			want[i] = y[i]
		}
		alpha := src.Uniform(-2, 2)
		for i := range want {
			want[i] += alpha * x[i]
		}
		AXPY(alpha, x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("AXPY len %d idx %d: got %x want %x", n, i, y[i], want[i])
			}
		}
	}
}

// refMulTransBias, refMul and refGradAccum run the portable Go kernels:
// the naive loops (bias-first ascending k; ascending k skipping exact-zero
// a[i][k]; ascending r, o, j with scale·(d·x)) that define every
// implementation's bits.
func refMulTransBias(a, b *Matrix, bias []float64) *Matrix {
	c := New(a.Rows, b.Rows)
	mulTransBiasGo(c, a, b, bias)
	return c
}

func refMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	mulGo(c, a, b)
	return c
}

func refGradAccum(dw *Matrix, db []float64, delta, in *Matrix, scale float64) {
	gradAccumGo(dw, db, delta, in, scale)
}

// specialShapes put the last row and column both inside a full register
// block and in the odd-row and n%4 tails, below and above the row gate.
var specialShapes = []struct{ m, n, k int }{{2, 1, 1}, {2, 4, 4}, {3, 5, 17}, {4, 8, 3}, {3, 9, 16}, {9, 5, 17}, {10, 6, 3}}

func TestMulTransBiasIntoBitIdentical(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl kernelImpl) {
		src := rng.New(13)
		dst := &Matrix{} // reused across shapes: stale contents must never leak
		for _, sh := range kernelShapes {
			a := randMatrix(src, sh.m, sh.k)
			b := randMatrix(src, sh.n, sh.k)
			bias := make([]float64, sh.n)
			for i := range bias {
				bias[i] = src.Uniform(-1, 1)
			}
			what := fmt.Sprintf("shape %v", sh)
			got := impl.mulTransBias(dst, a, b, bias)
			if got.Rows != sh.m || got.Cols != sh.n {
				t.Fatalf("%s: got %dx%d", what, got.Rows, got.Cols)
			}
			requireSame(t, what, got.Data, refMulTransBias(a, b, bias).Data)

			// nil bias must match the seed-zero naive product, through the
			// implementation and through the dispatching entry point.
			want := refMulTransBias(a, b, nil).Data
			requireSame(t, what+" nil bias", impl.mulTransBias(dst, a, b, nil).Data, want)
			requireSame(t, what+" MulTransBiasInto nil bias", MulTransBiasInto(dst, a, b, nil).Data, want)
		}

		for _, sh := range specialShapes {
			what := fmt.Sprintf("shape %v", sh)
			last := sh.m - 1

			// −0 products onto a +0 bias give +0, as the ascending loop does.
			a := randMatrix(src, sh.m, sh.k)
			b := randMatrix(src, sh.n, sh.k)
			for i := range b.Data {
				b.Data[i] = math.Abs(b.Data[i]) + 0.5
			}
			for k := range a.Row(last) {
				a.Row(last)[k] = math.Copysign(0, -1)
			}
			bias := make([]float64, sh.n)
			got := impl.mulTransBias(dst, a, b, bias)
			requireSame(t, what+" signed zero", got.Data, refMulTransBias(a, b, bias).Data)
			for j, v := range got.Row(last) {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: −0 products onto +0 bias gave %v at column %d, want +0", what, v, j)
				}
			}

			// NaN and ±Inf propagate.
			a = randMatrix(src, sh.m, sh.k)
			b = randMatrix(src, sh.n, sh.k)
			a.Set(0, sh.k-1, math.NaN())
			b.Set(sh.n-1, 0, math.Inf(1))
			bias[0] = math.Inf(-1)
			got = impl.mulTransBias(dst, a, b, bias)
			requireSame(t, what+" NaN/Inf", got.Data, refMulTransBias(a, b, bias).Data)
			for j, v := range got.Row(0) {
				if !math.IsNaN(v) {
					t.Fatalf("%s: NaN input gave %v at (0,%d)", what, v, j)
				}
			}
			if sh.n > 1 {
				for i := 1; i < sh.m; i++ {
					if !math.IsInf(got.At(i, 0), -1) || !math.IsInf(got.At(i, sh.n-1), 0) {
						t.Fatalf("%s: Inf inputs gave %v, %v in row %d", what, got.At(i, 0), got.At(i, sh.n-1), i)
					}
				}
			}
		}
	})
}

func TestMulIntoBitIdenticalToAscendingAccumulation(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl kernelImpl) {
		src := rng.New(14)
		dst := &Matrix{}
		for _, sh := range kernelShapes {
			a := randMatrix(src, sh.m, sh.k)
			b := randMatrix(src, sh.k, sh.n)
			// Plant exact zeros so the sparsity skip path is exercised.
			a.Data[0] = 0
			if len(a.Data) > 3 {
				a.Data[3] = 0
			}
			requireSame(t, fmt.Sprintf("shape %v", sh), impl.mul(dst, a, b).Data, refMul(a, b).Data)
		}

		for _, sh := range specialShapes {
			what := fmt.Sprintf("shape %v", sh)
			last := sh.m - 1

			// Negative a times a +0 column of b gives −0 products onto the +0
			// start: the cell stays +0.
			a := randMatrix(src, sh.m, sh.k)
			b := randMatrix(src, sh.k, sh.n)
			for k := range a.Row(last) {
				a.Row(last)[k] = -math.Abs(a.Row(last)[k]) - 0.5
				b.Set(k, sh.n-1, 0)
			}
			got := impl.mul(dst, a, b)
			requireSame(t, what+" signed zero", got.Data, refMul(a, b).Data)
			if v := got.At(last, sh.n-1); math.Float64bits(v) != 0 {
				t.Fatalf("%s: −0 products onto +0 gave %v, want +0", what, v)
			}

			// Zeros of both signs in a over a finite b, and products that
			// underflow to ±0: where b is finite the kernels run without
			// the skip, and the cells must still be the skipping loop's.
			a = randMatrix(src, sh.m, sh.k)
			b = randMatrix(src, sh.k, sh.n)
			for i := range a.Data {
				switch i % 3 {
				case 0:
					a.Data[i] = 0
				case 1:
					a.Data[i] = math.Copysign(0, -1)
				default:
					a.Data[i] *= 0x1p-540
				}
			}
			for i := range b.Data {
				b.Data[i] *= 0x1p-540
			}
			requireSame(t, what+" zeros over finite b", impl.mul(dst, a, b).Data, refMul(a, b).Data)

			// An exact 0 in a opposite an Inf row of b is skipped, so row 0
			// stays finite; the other rows see ±Inf, and a NaN in the last row
			// of a propagates across it.
			a = randMatrix(src, sh.m, sh.k)
			b = randMatrix(src, sh.k, sh.n)
			a.Set(0, 0, 0)
			for j := range b.Row(0) {
				b.Row(0)[j] = math.Inf(1)
			}
			a.Set(last, sh.k-1, math.NaN())
			got = impl.mul(dst, a, b)
			requireSame(t, what+" NaN/Inf", got.Data, refMul(a, b).Data)
			for i := 0; i < sh.m; i++ {
				for j, v := range got.Row(i) {
					switch {
					case i == 0 && (math.IsInf(v, 0) || math.IsNaN(v)):
						t.Fatalf("%s: 0 opposite Inf reached cell (0,%d) as %v; the zero skip is gone", what, j, v)
					case i > 0 && i < last && !math.IsInf(v, 0):
						t.Fatalf("%s: Inf input gave %v at (%d,%d)", what, v, i, j)
					case i == last && !math.IsNaN(v):
						t.Fatalf("%s: NaN input gave %v at (%d,%d)", what, v, i, j)
					}
				}
			}
		}
	})
}

func TestGradAccumIntoBitIdentical(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl kernelImpl) {
		src := rng.New(15)
		// randPrior returns dw and db seeded with prior contents (the kernel
		// accumulates, not overwrites) and the reference's copies of both.
		randPrior := func(outputs, inputs int) (dw *Matrix, db []float64, wantW *Matrix, wantB []float64) {
			dw = randMatrix(src, outputs, inputs)
			db = make([]float64, outputs)
			for i := range db {
				db[i] = src.Uniform(-1, 1)
			}
			return dw, db, dw.Clone(), append([]float64(nil), db...)
		}
		for _, sh := range kernelShapes {
			batch, outputs, inputs := sh.m, sh.n, sh.k
			delta := randMatrix(src, batch, outputs)
			in := randMatrix(src, batch, inputs)
			scale := 1 / float64(batch)
			dw, db, wantW, wantB := randPrior(outputs, inputs)
			refGradAccum(wantW, wantB, delta, in, scale)
			impl.gradAccum(dw, db, delta, in, scale)
			what := fmt.Sprintf("shape %v", sh)
			requireSame(t, what+" dw", dw.Data, wantW.Data)
			requireSame(t, what+" db", db, wantB)
		}

		for _, sh := range specialShapes {
			batch, outputs, inputs := sh.m, sh.n, sh.k
			what := fmt.Sprintf("shape %v", sh)
			scale := 1 / float64(batch)

			// A −0 delta column accumulates −0 terms onto +0 gradients: they
			// stay +0.
			delta := randMatrix(src, batch, outputs)
			in := randMatrix(src, batch, inputs)
			for r := 0; r < batch; r++ {
				delta.Set(r, outputs-1, math.Copysign(0, -1))
			}
			dw, db := New(outputs, inputs), make([]float64, outputs)
			wantW, wantB := New(outputs, inputs), make([]float64, outputs)
			refGradAccum(wantW, wantB, delta, in, scale)
			impl.gradAccum(dw, db, delta, in, scale)
			requireSame(t, what+" signed zero dw", dw.Data, wantW.Data)
			requireSame(t, what+" signed zero db", db, wantB)
			for j, v := range append(dw.Row(outputs-1), db[outputs-1]) {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: −0 terms onto +0 gave %v at %d, want +0", what, v, j)
				}
			}

			// NaN and ±Inf propagate: a NaN input poisons its dw column, an Inf
			// delta its db cell and dw row.
			delta = randMatrix(src, batch, outputs)
			in = randMatrix(src, batch, inputs)
			in.Set(0, inputs-1, math.NaN())
			delta.Set(batch-1, 0, math.Inf(1))
			dw, db, wantW, wantB = randPrior(outputs, inputs)
			refGradAccum(wantW, wantB, delta, in, scale)
			impl.gradAccum(dw, db, delta, in, scale)
			requireSame(t, what+" NaN/Inf dw", dw.Data, wantW.Data)
			requireSame(t, what+" NaN/Inf db", db, wantB)
			for o := 0; o < outputs; o++ {
				if !math.IsNaN(dw.At(o, inputs-1)) {
					t.Fatalf("%s: NaN input gave dw[%d][%d] = %v", what, o, inputs-1, dw.At(o, inputs-1))
				}
			}
			if !math.IsInf(db[0], 1) {
				t.Fatalf("%s: Inf delta gave db[0] = %v", what, db[0])
			}
			for j := 0; j < inputs-1; j++ {
				if !math.IsInf(dw.At(0, j), 0) {
					t.Fatalf("%s: Inf delta gave dw[0][%d] = %v", what, j, dw.At(0, j))
				}
			}
		}
	})
}

func TestKernelShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected shape panic", name)
			}
		}()
		f()
	}
	expectPanic("MulTransBiasInto k", func() { MulTransBiasInto(&Matrix{}, New(2, 3), New(2, 4), nil) })
	expectPanic("MulTransBiasInto bias", func() { MulTransBiasInto(&Matrix{}, New(2, 3), New(2, 3), make([]float64, 3)) })
	expectPanic("GradAccumInto rows", func() {
		GradAccumInto(New(2, 3), make([]float64, 2), New(4, 2), New(5, 3), 1)
	})
	expectPanic("GradAccumInto cols", func() {
		GradAccumInto(New(2, 4), make([]float64, 2), New(4, 2), New(4, 3), 1)
	})
}

func BenchmarkMulTransBias128x16x16(b *testing.B) {
	src := rng.New(16)
	a := randMatrix(src, 128, 16)
	w := randMatrix(src, 16, 16)
	bias := make([]float64, 16)
	dst := &Matrix{}
	MulTransBiasInto(dst, a, w, bias)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransBiasInto(dst, a, w, bias)
	}
}

// BenchmarkFoldKernels times the three kernels at a Table 2 fold's shapes
// (259 training rows, a 4-16-5 network): the exported kernels, which take
// the assembly where it is selected, beside the portable Go kernels.
func BenchmarkFoldKernels(b *testing.B) {
	src := rng.New(17)
	const rows = 259
	for _, sh := range []struct{ in, out int }{{4, 16}, {16, 5}} {
		x := randMatrix(src, rows, sh.in)
		w := randMatrix(src, sh.out, sh.in)
		delta := randMatrix(src, rows, sh.out)
		dw, db := New(sh.out, sh.in), make([]float64, sh.out)
		dst, bias := New(rows, sh.out), delta.Row(0)
		name := fmt.Sprintf("%dx%dx%d", rows, sh.in, sh.out)
		b.Run("MulTransBias/"+name+"/dispatch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulTransBiasInto(dst, x, w, bias)
			}
		})
		b.Run("MulTransBias/"+name+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulTransBiasGo(dst, x, w, bias)
			}
		})
		b.Run("GradAccum/"+name+"/dispatch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GradAccumInto(dw, db, delta, x, 1.0/rows)
			}
		})
		b.Run("GradAccum/"+name+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gradAccumGo(dw, db, delta, x, 1.0/rows)
			}
		})
	}
	delta, w, dst := randMatrix(src, rows, 5), randMatrix(src, 5, 16), New(rows, 16)
	b.Run("Mul/259x5x16/dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulInto(dst, delta, w)
		}
	})
	b.Run("Mul/259x5x16/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mulGo(dst, delta, w)
		}
	})
}
