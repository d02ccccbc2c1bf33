// Package queueing provides closed-form M/M/c results (the Erlang-C
// formula). The three-tier simulator's thread pools are, at their core,
// multi-server queues: the extrapolation experiment fits models to this
// curve, and the simulator's tests check it against the formula, so the
// synthetic data source substituting for the paper's proprietary workload
// is itself verifiable.
package queueing

import "errors"

// ErrUnstable is returned when the offered load meets or exceeds capacity
// (ρ ≥ 1), where steady-state queue metrics are undefined.
var ErrUnstable = errors.New("queueing: utilization >= 1, system is unstable")

// MMC describes a c-server queue with Poisson arrivals (rate λ) and
// exponential service (rate μ per server).
type MMC struct {
	Lambda, Mu float64
	C          int
}

// Utilization returns ρ = λ/(c·μ).
func (q MMC) Utilization() float64 { return q.Lambda / (float64(q.C) * q.Mu) }

// ErlangC returns the probability that an arriving job must wait (all c
// servers busy), computed with a numerically stable iterative form.
func (q MMC) ErlangC() (float64, error) {
	rho := q.Utilization()
	if rho >= 1 {
		return 0, ErrUnstable
	}
	if q.C < 1 {
		return 0, errors.New("queueing: server count must be >= 1")
	}
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Iteratively compute the Erlang-B blocking probability, then convert
	// to Erlang C. B(0)=1; B(k)=a·B(k−1)/(k+a·B(k−1)).
	b := 1.0
	for k := 1; k <= q.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	c := b / (1 - rho*(1-b))
	return c, nil
}

// MeanWait returns Wq, the mean time spent waiting for a server.
func (q MMC) MeanWait() (float64, error) {
	pc, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	return pc / (float64(q.C)*q.Mu - q.Lambda), nil
}

// MeanResponseTime returns W = Wq + 1/μ, the mean time in system.
func (q MMC) MeanResponseTime() (float64, error) {
	wq, err := q.MeanWait()
	if err != nil {
		return 0, err
	}
	return wq + 1/q.Mu, nil
}
