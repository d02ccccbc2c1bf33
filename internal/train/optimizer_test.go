package train

import (
	"fmt"
	"math"
	"testing"

	"nnwc/internal/cpuid"
	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// noAVX512 is why the AVX-512 kernel's cases skip on a host without it.
const noAVX512 = "CPU lacks AVX512F/AVX512DQ or the OS does not save the opmask and ZMM state"

// forEachRPROP runs f as a subtest per RPROP implementation the host
// supports, the Go loop ("go") and the AVX-512 kernel ("avx512"), with
// RPROP.Step selecting it.
func forEachRPROP(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range []bool{false, true} {
		t.Run(map[bool]string{false: "go", true: "avx512"}[kernel], func(t *testing.T) {
			if kernel && !cpuid.AVX512 {
				t.Skip(noAVX512)
			}
			saved := rpropZMM
			rpropZMM = kernel
			t.Cleanup(func() { rpropZMM = saved })
			f(t)
		})
	}
}

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
		nn.XavierInit(net, rng.New(uint64(32+h)))
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

// TestRPROPKernelSelection checks the gate: RPROP.Step selects the AVX-512
// kernel exactly where the probe allows it, and logs which one runs.
func TestRPROPKernelSelection(t *testing.T) {
	if rpropZMM != cpuid.AVX512 {
		t.Fatalf("rpropZMM = %v, CPUID AVX512 %v", rpropZMM, cpuid.AVX512)
	}
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	r := NewRPROP()
	r.Step(net, NewGradients(net))
	if !r.clean {
		t.Fatal("canonical RPROP left its state unclean: the kernel would not run")
	}
	t.Logf("rprop kernel selected: %s", map[bool]string{false: "go", true: "AVX512"}[rpropZMM])
}

// TestRPROPDegenerateHyperparametersTakeGoLoop checks that a NaN, ±Inf,
// zero or negative hyperparameter sends the step to the Go loop, and that
// the state stays on it until Reset: a degenerate step may leave NaN steps,
// on which VMINPD and VMAXPD differ from the clamps.
func TestRPROPDegenerateHyperparametersTakeGoLoop(t *testing.T) {
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, rng.New(41))
	g := NewGradients(net)
	for i := range g.Flat {
		g.Flat[i] = float64(i%3) - 1
	}
	fields := []struct {
		name string
		f    func(r *RPROP) *float64
	}{
		{"EtaPlus", func(r *RPROP) *float64 { return &r.EtaPlus }},
		{"EtaMinus", func(r *RPROP) *float64 { return &r.EtaMinus }},
		{"StepInit", func(r *RPROP) *float64 { return &r.StepInit }},
		{"StepMin", func(r *RPROP) *float64 { return &r.StepMin }},
		{"StepMax", func(r *RPROP) *float64 { return &r.StepMax }},
	}
	for _, fd := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1} {
			r := NewRPROP()
			*fd.f(r) = v
			r.Step(net, g)
			if r.clean {
				t.Fatalf("%s = %v: the state stays clean, so the kernel would run", fd.name, v)
			}
			*fd.f(r) = *fd.f(NewRPROP())
			r.Step(net, g)
			if r.clean {
				t.Fatalf("%s = %v, then restored: the kernel runs on state a degenerate step left", fd.name, v)
			}
			r.Reset()
			r.Step(net, g)
			if !r.clean {
				t.Fatalf("%s = %v, restored and Reset: the kernel does not run", fd.name, v)
			}
		}
	}
}

// TestRPROPKernelBitIdentical runs the AVX-512 kernel and the Go loop side
// by side and requires the same parameters, steps and previous gradients
// bit for bit after every step, and nothing written past the slices. The
// lengths cover every tail mask, a 4-16-5 network's 165 weights and a
// longer vector. Each run has three phases of 100 steps: random signs
// (flips) with ±0, subnormals, ±Inf and NaNs of three payloads, signs that
// persist (steps grow to StepMax), and signs that alternate (steps shrink
// to StepMin); the parameters start with ±0, ±Inf and a NaN among them.
func TestRPROPKernelBitIdentical(t *testing.T) {
	if !cpuid.AVX512 {
		t.Skip(noAVX512)
	}
	const guard = 9
	hypers := []RPROP{*NewRPROP(), {EtaPlus: 2, EtaMinus: 0.25, StepInit: 0.5, StepMin: 0.1, StepMax: 1}}
	nans := []uint64{0x7ff8000000000001, 0xfff8000000000abc, 0x7ff0000000000123} // the last signaling
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -0x1p-1030, math.Inf(1), math.Inf(-1)}
	for _, nan := range nans {
		specials = append(specials, math.Float64frombits(nan))
	}
	var lengths []int
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 165, 333)
	src := rng.New(43)
	for h, hy := range hypers {
		for _, n := range lengths {
			what := fmt.Sprintf("hyper %d len %d", h, n)
			// state returns p, step and prev with guard cells past n.
			state := func() [3][]float64 {
				var s [3][]float64
				for k := range s {
					s[k] = make([]float64, n+guard)
					for i := range s[k] {
						s[k][i] = math.Float64frombits(0x5a5a5a5a5a5a5a5a)
					}
				}
				for i := 0; i < n; i++ {
					s[0][i], s[1][i], s[2][i] = src.Norm(), hy.StepInit, 0
				}
				return s
			}
			goS, asmS := state(), state()
			for i := 0; i < n; i += 5 {
				goS[0][i] = specials[(i/5)%len(specials)]
			}
			copy(asmS[0], goS[0])
			grad := make([]float64, n)
			persist := make([]float64, n)
			for i := range persist {
				persist[i] = math.Copysign(1, src.Norm())
			}
			for v := 0; v < 300; v++ {
				for i := range grad {
					mag := math.Abs(src.Norm()) * math.Ldexp(1, -src.Intn(20))
					switch {
					case v < 100 && src.Float64() < 0.3:
						grad[i] = specials[src.Intn(len(specials))]
					case v < 100:
						grad[i] = math.Copysign(mag, src.Norm())
					case v < 200:
						grad[i] = persist[i] * mag
					default:
						grad[i] = persist[i] * mag * float64(1-2*(v%2))
					}
				}
				rpropStepGo(goS[0][:n], goS[1][:n], goS[2][:n], grad, hy.EtaPlus, hy.EtaMinus, hy.StepMin, hy.StepMax)
				rpropStepAVX512(asmS[0][:n], asmS[1][:n], asmS[2][:n], grad, hy.EtaPlus, hy.EtaMinus, hy.StepMin, hy.StepMax)
				for k, name := range []string{"p", "step", "prev"} {
					for i := range goS[k] {
						if math.Float64bits(asmS[k][i]) != math.Float64bits(goS[k][i]) {
							t.Fatalf("%s step %d: %s[%d] = %v (%#x), Go loop %v (%#x)", what, v, name, i,
								asmS[k][i], math.Float64bits(asmS[k][i]), goS[k][i], math.Float64bits(goS[k][i]))
						}
					}
				}
				if n > 0 && (v == 199 || v == 299) {
					bound := map[int]float64{199: hy.StepMax, 299: hy.StepMin}[v]
					hit := false
					for _, s := range asmS[1][:n] {
						hit = hit || s == bound
					}
					if !hit {
						t.Fatalf("%s step %d: no step reached %v", what, v, bound)
					}
				}
			}
		}
	}
}

// BenchmarkRPROPStep times one RPROP step over a 4-16-5 network's 165
// parameters, cycling through 64 random gradients so about half the
// weights flip sign each step.
func BenchmarkRPROPStep(b *testing.B) {
	net := nn.NewNetwork([]int{4, 16, 5}, nn.Logistic{Alpha: 1}, nn.Identity{})
	nn.XavierInit(net, rng.New(1))
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
