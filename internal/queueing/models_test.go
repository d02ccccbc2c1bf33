package queueing

import (
	"errors"
	"math"

	"nnwc/internal/stats"
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

// MMCK describes an M/M/c/K queue: c servers, system capacity K (waiting
// room K−c), Poisson arrivals at rate λ, exponential service at rate μ per
// server. Arrivals finding the system full are lost — precisely the
// admission-control behaviour of the three-tier simulator's bounded thread
// pools, which makes this the analytic oracle for their rejection rates.
type MMCK struct {
	Lambda, Mu float64
	C, K       int
}

// validate reports parameter errors.
func (q MMCK) validate() error {
	if q.C < 1 {
		return errors.New("queueing: M/M/c/K needs at least one server")
	}
	if q.K < q.C {
		return errors.New("queueing: capacity K must be >= server count c")
	}
	if q.Lambda <= 0 || q.Mu <= 0 {
		return errors.New("queueing: rates must be positive")
	}
	return nil
}

// stateProbabilities returns p_0..p_K. Because the state space is finite
// the chain is ergodic for any load, including ρ ≥ 1.
func (q MMCK) stateProbabilities() ([]float64, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	a := q.Lambda / q.Mu
	// Build unnormalized terms iteratively for numerical stability.
	terms := make([]float64, q.K+1)
	terms[0] = 1
	for n := 1; n <= q.K; n++ {
		rate := float64(n)
		if n > q.C {
			rate = float64(q.C)
		}
		terms[n] = terms[n-1] * a / rate
	}
	var sum float64
	for _, t := range terms {
		sum += t
	}
	for n := range terms {
		terms[n] /= sum
	}
	return terms, nil
}

// BlockingProbability returns p_K, the fraction of arrivals rejected.
func (q MMCK) BlockingProbability() (float64, error) {
	p, err := q.stateProbabilities()
	if err != nil {
		return 0, err
	}
	return p[q.K], nil
}

// Throughput returns the accepted-traffic rate λ·(1 − p_K).
func (q MMCK) Throughput() (float64, error) {
	pk, err := q.BlockingProbability()
	if err != nil {
		return 0, err
	}
	return q.Lambda * (1 - pk), nil
}

// MeanNumberInSystem returns L = Σ n·p_n.
func (q MMCK) MeanNumberInSystem() (float64, error) {
	p, err := q.stateProbabilities()
	if err != nil {
		return 0, err
	}
	var l float64
	for n, pn := range p {
		l += float64(n) * pn
	}
	return l, nil
}

// MeanResponseTime returns W = L / λ_accepted (Little's law over accepted
// jobs).
func (q MMCK) MeanResponseTime() (float64, error) {
	l, err := q.MeanNumberInSystem()
	if err != nil {
		return 0, err
	}
	tput, err := q.Throughput()
	if err != nil {
		return 0, err
	}
	if stats.ExactZero(tput) {
		return 0, errors.New("queueing: zero accepted throughput")
	}
	return l / tput, nil
}

// MeanWait returns Wq = W − 1/μ.
func (q MMCK) MeanWait() (float64, error) {
	w, err := q.MeanResponseTime()
	if err != nil {
		return 0, err
	}
	wq := w - 1/q.Mu
	if wq < 0 {
		wq = 0 // numeric guard for near-zero waits
	}
	return wq, nil
}

// Utilization returns the per-server busy fraction of accepted work,
// λ(1−p_K)/(c·μ), always in [0, 1].
func (q MMCK) Utilization() (float64, error) {
	tput, err := q.Throughput()
	if err != nil {
		return 0, err
	}
	u := tput / (float64(q.C) * q.Mu)
	return math.Min(u, 1), nil
}
