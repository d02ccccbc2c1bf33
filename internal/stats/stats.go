// Package stats provides the descriptive statistics and the error metrics
// the paper's methodology relies on: mean/standard deviation for
// standardization (§3.1), and the harmonic mean of relative errors used to
// score a validation fold (§3.3), alongside the usual regression metrics
// (MAE, MAPE, RMSE, R²) used for baseline comparisons.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by metrics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanSkipNaN returns the arithmetic mean of the non-NaN entries of xs.
// It returns NaN when xs is empty or every entry is NaN — aggregates over
// undefined metrics must not report a (perfect-looking) number.
func MeanSkipNaN(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Variance returns the population variance of xs (dividing by n), or 0 for
// fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// SampleVariance returns the sample variance of xs (dividing by n−1), or 0
// for fewer than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// HarmonicMean returns the harmonic mean of xs, summing 1/x in order.
// Inputs must be strictly positive; non-positive values make the harmonic
// mean undefined and cause an error.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: harmonic mean requires positive values")
		}
		s += 1 / x
	}
	return float64(len(xs)) / s, nil
}

// RelativeErrors returns |pred−actual| / |actual| element-wise. Entries
// where actual is zero are skipped (they would be infinite); the returned
// slice may therefore be shorter than the input.
func RelativeErrors(actual, pred []float64) []float64 {
	out := make([]float64, 0, len(actual))
	for i, a := range actual {
		if ExactZero(a) {
			continue
		}
		out = append(out, math.Abs(pred[i]-a)/math.Abs(a))
	}
	return out
}

// RelErrFloor is the floor applied to individual relative errors inside
// HarmonicMeanRelativeError. The harmonic mean is dominated by its smallest
// term, so a single coincidentally exact prediction (relative error 0)
// would otherwise collapse the whole indicator's reported error to 0% and
// inflate the derived accuracy. Flooring at 1e-6 (0.0001%) keeps exact hits
// from zeroing the metric while staying far below any error the paper's
// loose-fit protocol can distinguish.
const RelErrFloor = 1e-6

// HarmonicMeanRelativeError is the paper's §3.3 validation metric: the
// harmonic mean of |error|/|actual| over a set of predictions. Zero-valued
// actuals are skipped. Individual relative errors are floored at
// RelErrFloor so one exact prediction cannot collapse the metric to 0; the
// result is exactly 0 only when every prediction is exact.
func HarmonicMeanRelativeError(actual, pred []float64) (float64, error) {
	if len(actual) != len(pred) {
		return 0, errors.New("stats: length mismatch")
	}
	rel := RelativeErrors(actual, pred)
	if len(rel) == 0 {
		return 0, ErrEmpty
	}
	allExact := true
	for i, r := range rel {
		if !ExactZero(r) {
			allExact = false
		}
		if r < RelErrFloor {
			rel[i] = RelErrFloor
		}
	}
	if allExact {
		return 0, nil
	}
	return HarmonicMean(rel)
}

// MAPE returns the mean absolute percentage error (as a fraction, not
// percent). Zero actuals are skipped.
func MAPE(actual, pred []float64) float64 {
	rel := RelativeErrors(actual, pred)
	return Mean(rel)
}

// RMSE returns the root-mean-square error between actual and pred.
func RMSE(actual, pred []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i, a := range actual {
		d := pred[i] - a
		s += d * d
	}
	return math.Sqrt(s / float64(len(actual)))
}

// R2 returns the coefficient of determination of pred against actual.
// A constant actual series yields R² = 0 by convention.
func R2(actual, pred []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	mean := Mean(actual)
	var ssRes, ssTot float64
	for i, a := range actual {
		d := pred[i] - a
		ssRes += d * d
		t := a - mean
		ssTot += t * t
	}
	if ExactZero(ssTot) {
		return 0
	}
	return 1 - ssRes/ssTot
}
