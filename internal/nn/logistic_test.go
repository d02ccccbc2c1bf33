package nn

import (
	"math"
	"testing"

	"nnwc/internal/rng"
)

const expOverflow = 7.09782712893384e+02 // largest x math.Exp does not send to +Inf early

// logisticEdgesX are exponent arguments x = −α·v at and around the ends of
// the vectorized kernel's range [−700, expOverflow]: the four in range
// first, then the next float outside each end.
var logisticEdgesX = []float64{
	-700, math.Nextafter(-700, 0), expOverflow, math.Nextafter(expOverflow, 0),
	math.Nextafter(-700, math.Inf(-1)), math.Nextafter(expOverflow, math.Inf(1)),
}

// logisticSpecials are inputs v: the in-range ones (signed zeros and
// subnormals) first, then the ones no kernel lane may take.
var logisticSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308, 1e-310, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// logisticImpl is one way a row reaches the logistic; its cases skip,
// logging skip, where this host cannot run it.
type logisticImpl struct {
	name string
	skip string
	row  func(alpha float64, pre, out []float64)
}

// logisticImpls holds EvalRow, which dispatches to the kernel where one is
// selected; logistic_amd64_test.go adds each kernel, finished by the
// scalar loop as logisticRow finishes it.
var logisticImpls = []logisticImpl{
	{name: "EvalRow", row: func(alpha float64, pre, out []float64) { EvalRow(Logistic{Alpha: alpha}, pre, out) }},
}

// TestEvalRowLogisticMatchesScalar pins EvalRow's logistic, vectorized or
// not, and each kernel's rows to the scalar 1/(1+math.Exp(−α·v)) bit for
// bit.
func TestEvalRowLogisticMatchesScalar(t *testing.T) {
	for _, impl := range logisticImpls {
		t.Run(impl.name, func(t *testing.T) {
			if impl.skip != "" {
				t.Skip(impl.skip)
			}
			testLogisticRowMatchesScalar(t, impl.row)
		})
	}
}

func testLogisticRowMatchesScalar(t *testing.T, logisticRow func(alpha float64, pre, out []float64)) {
	src := rng.New(41)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 259 * 16}
	for _, alpha := range []float64{1, 0.5, 2, -1, 0} {
		l := Logistic{Alpha: alpha}
		// fromX returns the v with −α·v == x exactly (α is a power of two).
		fromX := func(x float64) float64 {
			if alpha == 0 {
				return x
			}
			return x / -alpha
		}
		for _, n := range lengths {
			var rows [][]float64
			fill := func(f func(i int) float64) {
				row := make([]float64, n)
				for i := range row {
					row[i] = f(i)
				}
				rows = append(rows, row)
			}
			for _, sigma := range []float64{0.1, 1, 5, 30} {
				fill(func(int) float64 { return sigma * src.Norm() })
			}
			fill(func(int) float64 { return fromX(src.Uniform(-720, 720)) })
			fill(func(i int) float64 { return fromX(logisticEdgesX[i%4]) })
			fill(func(i int) float64 { return fromX(logisticEdgesX[i%len(logisticEdgesX)]) })
			fill(func(i int) float64 { return logisticSpecials[i%len(logisticSpecials)] })
			fill(func(i int) float64 {
				if i%7 == 3 {
					return logisticSpecials[i%len(logisticSpecials)]
				}
				return src.Norm()
			})
			for _, row := range rows {
				got := make([]float64, n)
				logisticRow(alpha, row, got)
				for i, v := range row {
					if want := l.Eval(v); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("α=%v n=%d v=%v: row %v (%#x), scalar %v (%#x)",
							alpha, n, v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// derivSpecials are special y or dst lanes for the derivative sweep: signed
// zeros, subnormals, ±1, infinities, then NaNs with three payloads. Two
// NaN operands of one product are the only inputs whose result bits could
// depend on operand order.
var derivSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1, -1, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
}

// TestScaleByDerivLogisticMatchesScalar pins ScaleByDeriv's logistic,
// vectorized or not, to the scalar loop dst[i] *= α·y[i]·(1−y[i]) bit for
// bit, NaN payloads included: every length 0…67, α ≠ 1 among the slopes,
// y in [0, 1], and special lanes in y, in dst, and in both.
func TestScaleByDerivLogisticMatchesScalar(t *testing.T) {
	src := rng.New(43)
	special := func(i int) float64 { return derivSpecials[i%len(derivSpecials)] }
	for _, alpha := range []float64{1.7, -0.3, 1, 0, math.Inf(1), math.NaN()} {
		l := Logistic{Alpha: alpha}
		for n := 0; n <= 67; n++ {
			for variant := 0; variant < 4; variant++ {
				y, dst := make([]float64, n), make([]float64, n)
				for i := range y {
					y[i], dst[i] = src.Uniform(0, 1), src.Norm()
					if variant&1 != 0 && i%5 == 2 {
						y[i] = special(i + variant)
					}
					if variant&2 != 0 && i%3 == 1 {
						dst[i] = special(i)
					}
				}
				want := append([]float64(nil), dst...)
				for i := range want {
					want[i] *= l.Deriv(0, y[i])
				}
				ScaleByDeriv(l, y, y, dst)
				for i := range want {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("α=%v n=%d variant %d [%d] y=%v: ScaleByDeriv %v (%#x), scalar %v (%#x)",
							alpha, n, variant, i, y[i], dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// BenchmarkLogisticRow times the logistic over one hidden layer of a
// Table 2 fold: 259 training rows × 16 hidden units.
func BenchmarkLogisticRow(b *testing.B) {
	src := rng.New(1)
	pre := make([]float64, 259*16)
	for i := range pre {
		pre[i] = 2 * src.Norm()
	}
	out := make([]float64, len(pre))
	l := Logistic{Alpha: 1}
	var act Activation = l
	b.Run("EvalRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EvalRow(act, pre, out)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range pre {
				out[j] = l.Eval(v)
			}
		}
	})
}

// BenchmarkScaleByDerivLogistic times the logistic derivative sweep over
// one hidden layer of a Table 2 fold: 259 training rows × 16 hidden units.
func BenchmarkScaleByDerivLogistic(b *testing.B) {
	src := rng.New(1)
	y, delta := make([]float64, 259*16), make([]float64, 259*16)
	for i := range y {
		y[i], delta[i] = src.Uniform(0, 1), src.Norm()
	}
	dst := make([]float64, len(y))
	var act Activation = Logistic{Alpha: 1}
	for i := 0; i < b.N; i++ {
		copy(dst, delta) // repeated scaling would sink into slow subnormals
		ScaleByDeriv(act, y, y, dst)
	}
}
