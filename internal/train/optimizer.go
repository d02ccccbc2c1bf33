package train

import (
	"math"

	"nnwc/internal/nn"
)

// Optimizer applies an accumulated gradient to a network's parameters.
// All optimizers walk the network's flat parameter vector against the
// gradient's flat vector — one contiguous loop, no per-layer bookkeeping.
// Stateful optimizers (momentum, RPROP, Adam) lazily size their state to
// the first network they see and must not be reused across topologies.
type Optimizer interface {
	// Step updates net in place given the gradient of the current batch.
	Step(net *nn.Network, g *Gradients)
	// Reset clears optimizer state so the instance can train a fresh
	// network of the same topology.
	Reset()
	// Clone returns an independent optimizer with the same hyperparameters
	// and no accumulated state. Trainers clone the configured optimizer at
	// construction, so one Config value can drive many concurrent fits.
	Clone() Optimizer
	// Name identifies the optimizer in reports.
	Name() string
}

// SGD is plain gradient descent: w ← w − LR·∂E/∂w.
type SGD struct {
	LR float64
}

// Step implements Optimizer.
func (s *SGD) Step(net *nn.Network, g *Gradients) {
	lr := s.LR
	p := net.Params()
	for i, gv := range g.Flat {
		p[i] -= lr * gv
	}
}

// Reset implements Optimizer (SGD is stateless).
func (s *SGD) Reset() {}

// Clone implements Optimizer.
func (s *SGD) Clone() Optimizer { c := *s; return &c }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Momentum is gradient descent with classical momentum:
// v ← μ·v − LR·g; w ← w + v.
type Momentum struct {
	LR, Mu float64
	vel    []float64
}

// Step implements Optimizer.
func (m *Momentum) Step(net *nn.Network, g *Gradients) {
	p := net.Params()
	if m.vel == nil {
		m.vel = make([]float64, len(p))
	}
	for i, gv := range g.Flat {
		m.vel[i] = m.Mu*m.vel[i] - m.LR*gv
		p[i] += m.vel[i]
	}
}

// Reset implements Optimizer.
func (m *Momentum) Reset() { m.vel = nil }

// Clone implements Optimizer.
func (m *Momentum) Clone() Optimizer { return &Momentum{LR: m.LR, Mu: m.Mu} }

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// RPROP is resilient back-propagation (Riedmiller & Braun), a batch-only
// method that adapts a per-weight step size from the sign of successive
// gradients. It was the workhorse of mid-2000s MLP toolkits and is fast on
// the small, full-batch problems this paper works with.
type RPROP struct {
	EtaPlus, EtaMinus float64 // step growth/shrink factors (1.2 / 0.5)
	StepInit          float64 // initial step (0.1)
	StepMin, StepMax  float64 // step clamps (1e-6 / 50)
	step, prev        []float64
	// clean holds while StepInit and every step's hyperparameters since
	// the state was sized were positive finite, so no step is NaN.
	clean bool
}

// NewRPROP returns an RPROP optimizer with the canonical constants.
func NewRPROP() *RPROP {
	return &RPROP{EtaPlus: 1.2, EtaMinus: 0.5, StepInit: 0.1, StepMin: 1e-6, StepMax: 50}
}

// Step implements Optimizer. g must be a full-batch gradient. By the sign
// of grad·prev a weight grows its step and moves (> 0), shrinks its step
// and stays (< 0), or moves by its step (zero or NaN). rpropStepGo is the
// definition; on AVX-512 hosts the kernel runs it eight weights wide, bit
// for bit, unless a hyperparameter is NaN, ±Inf, zero or negative, where
// VMINPD and VMAXPD could differ from the clamps (DESIGN.md §13).
func (r *RPROP) Step(net *nn.Network, g *Gradients) {
	p := net.Params()
	if r.step == nil {
		r.step = make([]float64, len(p))
		r.prev = make([]float64, len(p))
		for i := range r.step {
			r.step[i] = r.StepInit
		}
		r.clean = positiveFinite(r.StepInit)
	}
	// A step with a degenerate hyperparameter takes the Go loop and leaves
	// the state to it until Reset: the steps it computes may be NaN, on
	// which VMINPD and VMAXPD differ from the clamps.
	r.clean = r.clean && positiveFinite(r.EtaPlus) && positiveFinite(r.EtaMinus) &&
		positiveFinite(r.StepMin) && positiveFinite(r.StepMax)
	p = p[:len(g.Flat)]
	step, prev := r.step[:len(p)], r.prev[:len(p)]
	if rpropZMM && r.clean {
		rpropStepAVX512(p, step, prev, g.Flat, r.EtaPlus, r.EtaMinus, r.StepMin, r.StepMax)
		return
	}
	rpropStepGo(p, step, prev, g.Flat, r.EtaPlus, r.EtaMinus, r.StepMin, r.StepMax)
}

// positiveFinite reports 0 < x < +Inf; NaN fails both comparisons.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// rpropStepGo is one RPROP step over grad, the definition every kernel
// reproduces. Bit masks pick each weight's outcome, so a gradient that
// flips sign costs no mispredicted branch.
//
//nnwc:hotpath
func rpropStepGo(p, step, prev, grad []float64, etaPlus, etaMinus, stepMin, stepMax float64) {
	p, step, prev = p[:len(grad)], step[:len(grad)], prev[:len(grad)]
	for i, g := range grad {
		sign := g * prev[i]
		grow, shrink := mask(sign > 0), mask(sign < 0)
		s := step[i]
		s = pick(grow, clampMin(s*etaPlus, stepMax), pick(shrink, clampMax(s*etaMinus, stepMin), s))
		step[i] = s
		// iRPROP−: a shrunk weight stays and forgets its gradient.
		p[i] = pick(shrink, p[i], p[i]-sgn(g)*s)
		prev[i] = math.Float64frombits(^shrink & math.Float64bits(g))
	}
}

// Reset implements Optimizer.
func (r *RPROP) Reset() { r.step, r.prev = nil, nil }

// Clone implements Optimizer.
func (r *RPROP) Clone() Optimizer {
	return &RPROP{EtaPlus: r.EtaPlus, EtaMinus: r.EtaMinus, StepInit: r.StepInit, StepMin: r.StepMin, StepMax: r.StepMax}
}

// Name implements Optimizer.
func (r *RPROP) Name() string { return "rprop" }

// sgn returns 1 for x > 0, −1 for x < 0, and +0 for ±0 and NaN.
func sgn(x float64) float64 {
	return math.Float64frombits((math.Float64bits(x)&(1<<63) | math.Float64bits(1)) & (mask(x > 0) | mask(x < 0)))
}

// clampMin and clampMax are math.Min and math.Max, inlined. The builtins
// agree with them unless an operand is NaN (only NaN hyperparameters make
// one): then math.Min gives −Inf if an operand is −Inf, math.Max +Inf if
// one is +Inf, and both math.NaN() otherwise.
func clampMin(x, y float64) float64 {
	if m := min(x, y); !math.IsNaN(m) {
		return m
	}
	if x < -math.MaxFloat64 || y < -math.MaxFloat64 {
		return math.Inf(-1)
	}
	return math.NaN()
}

func clampMax(x, y float64) float64 {
	if m := max(x, y); !math.IsNaN(m) {
		return m
	}
	if x > math.MaxFloat64 || y > math.MaxFloat64 {
		return math.Inf(1)
	}
	return math.NaN()
}

// mask returns all ones when c holds and zero otherwise, without a branch.
func mask(c bool) uint64 {
	var m uint64
	if c {
		m = 1
	}
	return -m
}

// pick returns the bits of a where m is all ones and of b where it is zero.
func pick(m uint64, a, b float64) float64 {
	return math.Float64frombits(m&math.Float64bits(a) | ^m&math.Float64bits(b))
}

// Adam is the adaptive-moment optimizer (Kingma & Ba). Included for
// ablation benches; anachronistic relative to the paper but a useful
// modern reference point.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	m, v                  []float64
	t                     int
}

// NewAdam returns an Adam optimizer with the canonical constants and the
// given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(net *nn.Network, g *Gradients) {
	p := net.Params()
	if a.m == nil {
		a.m = make([]float64, len(p))
		a.v = make([]float64, len(p))
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, grad := range g.Flat {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*grad
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*grad*grad
		p[i] -= a.LR * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.Eps)
	}
}

// Reset implements Optimizer.
func (a *Adam) Reset() { a.m, a.v, a.t = nil, nil, 0 }

// Clone implements Optimizer.
func (a *Adam) Clone() Optimizer {
	return &Adam{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }
