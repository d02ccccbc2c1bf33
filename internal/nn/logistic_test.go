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

// TestEvalRowLogisticMatchesScalar pins EvalRow's logistic, vectorized or
// not, to the scalar 1/(1+math.Exp(−α·v)) bit for bit.
func TestEvalRowLogisticMatchesScalar(t *testing.T) {
	src := rng.New(41)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 259 * 16}
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
				EvalRow(l, row, got)
				for i, v := range row {
					if want := l.Eval(v); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("α=%v n=%d v=%v: EvalRow %v (%#x), scalar %v (%#x)",
							alpha, n, v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
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
