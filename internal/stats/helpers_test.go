package stats

import (
	"math"
	"sort"
)

// Measures and comparisons that only this package's tests use.

// MAE returns the mean absolute error between actual and pred.
func MAE(actual, pred []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i, a := range actual {
		s += math.Abs(pred[i] - a)
	}
	return s / float64(len(actual))
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys, or 0 when either series is constant.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if ExactZero(sxx) || ExactZero(syy) {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ApproxEqual reports whether a and b agree within tol, using a combined
// absolute/relative test: |a−b| ≤ tol·max(1, |a|, |b|). tol therefore
// reads as an absolute tolerance near the unit interval and degrades
// gracefully to a relative tolerance for large magnitudes. NaN equals
// nothing (including NaN); equal infinities of the same sign are equal.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b // equal infinities only; |a−b| ≤ tol·Inf would accept anything
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Contains reports whether v lies inside the interval.
func (ci ConfidenceInterval) Contains(v float64) bool {
	return math.Abs(v-ci.Mean) <= ci.HalfWidth
}

// Summary bundles the descriptive statistics of one series.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
}

// Summarize computes a Summary of xs. It panics on empty input.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    StdDev(xs),
		Min:    Min(xs),
		Median: Median(xs),
		Max:    Max(xs),
	}
}

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it. It panics on empty
// input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
