package train

import (
	"math"
	"testing"

	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// rpropSwitchStep is RPROP.Step as a switch on the sign of grad·prev per
// weight, with math.Min, math.Max and a switch sgn: the definition the
// branch-free step reproduces.
func rpropSwitchStep(r *RPROP, p, step, prev, grad []float64) {
	sgnSwitch := func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	for i, g := range grad {
		sign := g * prev[i]
		switch {
		case sign > 0:
			step[i] = math.Min(step[i]*r.EtaPlus, r.StepMax)
			p[i] -= sgnSwitch(g) * step[i]
			prev[i] = g
		case sign < 0:
			step[i] = math.Max(step[i]*r.EtaMinus, r.StepMin)
			prev[i] = 0
		default:
			p[i] -= sgnSwitch(g) * step[i]
			prev[i] = g
		}
	}
}

// TestRPROPStepMatchesSwitch runs the branch-free step and the switch side
// by side over 10⁴ gradient vectors and requires the same parameters,
// steps and previous gradients bit for bit after every one. The gradients
// mix random signs (flips), weights whose sign persists (steps that grow
// to StepMax), ±0, NaN and ±Inf; the hyperparameter sets add clamps that
// bind within a few steps, an infinite StepMax with a zero EtaMinus (0·Inf
// steps), and NaN clamps, which take math.Min and math.Max.
func TestRPROPStepMatchesSwitch(t *testing.T) {
	hypers := []RPROP{
		*NewRPROP(),
		{EtaPlus: 2, EtaMinus: 0.25, StepInit: 0.5, StepMin: 0.1, StepMax: 1},
		{EtaPlus: 1e200, EtaMinus: 0, StepInit: 1e200, StepMin: 0, StepMax: math.Inf(1)},
		{EtaPlus: 1.2, EtaMinus: 0.5, StepInit: 0.1, StepMin: math.NaN(), StepMax: math.NaN()},
	}
	src := rng.New(31)
	for h, hyper := range hypers {
		net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
		nn.XavierInit{}.Init(net, rng.New(uint64(32+h)))
		r := hyper.Clone().(*RPROP)
		p := append([]float64(nil), net.Params()...)
		step, prev := make([]float64, len(p)), make([]float64, len(p))
		for i := range step {
			step[i] = hyper.StepInit
		}
		g := NewGradients(net)
		for v := 0; v < 2500; v++ {
			for i := range g.Flat {
				switch u := src.Float64(); {
				case i%7 == 0:
					g.Flat[i] = math.Abs(src.Norm()) // persists: the step grows to StepMax
				case u < 0.05:
					g.Flat[i] = 0
				case u < 0.08:
					g.Flat[i] = math.Copysign(0, -1)
				case u < 0.1:
					g.Flat[i] = math.NaN()
				case u < 0.12:
					g.Flat[i] = math.Inf(1)
				case u < 0.14:
					g.Flat[i] = math.Inf(-1)
				default:
					g.Flat[i] = src.Norm() * math.Ldexp(1, -src.Intn(20))
				}
			}
			r.Step(net, g)
			rpropSwitchStep(&hyper, p, step, prev, g.Flat)
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"params", net.Params(), p}, {"step", r.step, step}, {"prev", r.prev, prev}} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("hyper %d vector %d: %s[%d] = %v (%#x), switch %v (%#x)",
							h, v, c.what, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
					}
				}
			}
		}
	}
}

// TestRPROPClampsMatchMath holds the inlined clamps to math.Min and
// math.Max on the operands where the builtins could differ from them.
func TestRPROPClampsMatchMath(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8000000000123)
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), nanPayload}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := clampMin(x, y), math.Min(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("clampMin(%v, %v) = %#x, math.Min %#x", x, y, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := clampMax(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("clampMax(%v, %v) = %#x, math.Max %#x", x, y, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// BenchmarkRPROPStep times one RPROP step over a 4-16-5 network's 165
// parameters, cycling through 64 random gradients so about half the
// weights flip sign each step.
func BenchmarkRPROPStep(b *testing.B) {
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit{}.Init(net, rng.New(1))
	src := rng.New(2)
	gs := make([]*Gradients, 64)
	for k := range gs {
		gs[k] = NewGradients(net)
		for i := range gs[k].Flat {
			gs[k].Flat[i] = 1e-3 * src.Norm()
		}
	}
	r := NewRPROP()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 { // keep the steps away from their clamps
			r.Reset()
		}
		r.Step(net, gs[i%len(gs)])
	}
}
