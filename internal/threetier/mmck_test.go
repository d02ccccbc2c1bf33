package threetier

import (
	"math"
	"testing"
)

// mmck is the analytic oracle for the simulator's admission control: an
// M/M/c/K queue with c servers, system capacity K (waiting room K−c),
// Poisson arrivals at rate lambda and exponential service at rate mu per
// server. Arrivals finding the system full are lost, as at a bounded
// thread pool.
type mmck struct {
	lambda, mu float64
	c, k       int
}

// blocking returns p_K, the fraction of arrivals rejected. The state
// probabilities are built iteratively and normalized once; the chain is
// finite, so they exist at any load.
func (q mmck) blocking() float64 {
	a := q.lambda / q.mu
	term, sum := 1.0, 1.0
	for n := 1; n <= q.k; n++ {
		term *= a / float64(min(n, q.c))
		sum += term
	}
	return term / sum
}

func TestMMCKReducesToErlangB(t *testing.T) {
	// K = c (no waiting room) is the Erlang-B loss system; check against
	// the classic value B(c=2, a=1) = (1/2)/(1+1+1/2) = 0.2.
	if pb := (mmck{lambda: 1, mu: 1, c: 2, k: 2}).blocking(); math.Abs(pb-0.2) > 1e-12 {
		t.Fatalf("Erlang-B blocking %v, want 0.2", pb)
	}
}
