package queueing

import (
	"errors"
	"math"
)

// The queue models and measures below are exercised only by this
// package's tests.

// MM1 describes a single-server queue with Poisson arrivals (rate λ) and
// exponential service (rate μ).
type MM1 struct {
	Lambda, Mu float64
}

// Utilization returns ρ = λ/μ.
func (q MM1) Utilization() float64 { return q.Lambda / q.Mu }

// MeanResponseTime returns W = 1/(μ−λ), the mean time in system.
func (q MM1) MeanResponseTime() (float64, error) {
	if q.Utilization() >= 1 {
		return 0, ErrUnstable
	}
	return 1 / (q.Mu - q.Lambda), nil
}

// MeanQueueLength returns L = ρ/(1−ρ), the mean number in system.
func (q MM1) MeanQueueLength() (float64, error) {
	rho := q.Utilization()
	if rho >= 1 {
		return 0, ErrUnstable
	}
	return rho / (1 - rho), nil
}

// MeanQueueLength returns L = λ·W by Little's law.
func (q MMC) MeanQueueLength() (float64, error) {
	w, err := q.MeanResponseTime()
	if err != nil {
		return 0, err
	}
	return q.Lambda * w, nil
}

// ResponseTimePercentileApprox returns an approximate p-quantile (0<p<1)
// of the M/M/c response-time distribution, using the standard
// approximation that the conditional wait is exponential with rate
// cμ−λ and mixing it with the exponential service time.
func (q MMC) ResponseTimePercentileApprox(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, errors.New("queueing: percentile must be in (0,1)")
	}
	pc, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	// P(W > t) ≈ pc·exp(−(cμ−λ)t) + (1−pc)·exp(−μt) — a crude but
	// monotone mixture; invert numerically by bisection.
	tail := func(t float64) float64 {
		return pc*math.Exp(-(float64(q.C)*q.Mu-q.Lambda)*t) + (1-pc)*math.Exp(-q.Mu*t)
	}
	lo, hi := 0.0, 1.0
	for tail(hi) > 1-p {
		hi *= 2
		if hi > 1e12 {
			return 0, errors.New("queueing: percentile search diverged")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tail(mid) > 1-p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
