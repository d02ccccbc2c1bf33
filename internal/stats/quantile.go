package stats

import (
	"errors"
	"math"
	"sort"
)

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics (the R-7 / spreadsheet
// convention). The input is not modified. It panics on empty input or p
// outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if p < 0 || p > 1 {
		panic(errors.New("stats: quantile p outside [0,1]"))
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 1 {
		return c[0]
	}
	h := p * float64(len(c)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return c[lo]
	}
	frac := h - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Percentiles bundles the response-time percentiles workload reports use.
type Percentiles struct {
	P50, P90, P95, P99 float64
}

// SummarizePercentiles computes the standard percentile set of xs.
func SummarizePercentiles(xs []float64) Percentiles {
	return Percentiles{
		P50: Quantile(xs, 0.50),
		P90: Quantile(xs, 0.90),
		P95: Quantile(xs, 0.95),
		P99: Quantile(xs, 0.99),
	}
}

// ConfidenceInterval is a symmetric interval around a mean.
type ConfidenceInterval struct {
	Mean      float64
	HalfWidth float64 // the interval is Mean ± HalfWidth
	Batches   int
}

// BatchMeansCI estimates a ~95% confidence interval for the steady-state
// mean of a (possibly autocorrelated) simulation output series using the
// method of non-overlapping batch means: the series is cut into `batches`
// equal batches whose means are approximately independent, and a
// t-interval is formed over them. This is the standard way to attach
// error bars to discrete-event simulation results. Requires at least 2
// batches with at least 2 observations each.
func BatchMeansCI(series []float64, batches int) (ConfidenceInterval, error) {
	if batches < 2 {
		return ConfidenceInterval{}, errors.New("stats: need at least 2 batches")
	}
	if len(series) < 2*batches {
		return ConfidenceInterval{}, errors.New("stats: series too short for the requested batches")
	}
	means := make([]float64, batches)
	per := len(series) / batches
	for b := 0; b < batches; b++ {
		lo := b * per
		hi := lo + per
		if b == batches-1 {
			hi = len(series) // last batch absorbs the remainder
		}
		means[b] = Mean(series[lo:hi])
	}
	grand := Mean(means)
	sVar := SampleVariance(means)
	se := math.Sqrt(sVar / float64(batches))
	return ConfidenceInterval{
		Mean:      grand,
		HalfWidth: tCritical95(batches-1) * se,
		Batches:   batches,
	}, nil
}

// tCritical95 returns the two-sided 95% critical value of Student's t with
// df degrees of freedom (tabulated; asymptote 1.96 beyond the table).
func tCritical95(df int) float64 {
	table := []float64{
		0, // df = 0 unused
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 40:
		return 2.03
	case df < 60:
		return 2.00
	case df < 120:
		return 1.98
	}
	return 1.96
}
