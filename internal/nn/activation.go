// Package nn implements the paper's artificial-neural-network building
// blocks (§2): the perceptron computing y = f(Σ wᵢxᵢ − w₀), squashing
// activation functions (most prominently the logistic sigmoid with a slope
// parameter, Figure 2), and multilayer perceptrons (Figure 3) mapping an
// n-dimensional configuration space to an m-dimensional performance-
// indicator space.
package nn

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Activation is a differentiable squashing (or pass-through) function
// applied to a perceptron's weighted sum.
type Activation interface {
	// Eval returns f(x).
	Eval(x float64) float64
	// Deriv returns f'(x) given both the pre-activation x and the cached
	// output y = f(x); implementations use whichever is cheaper.
	Deriv(x, y float64) float64
	// Name identifies the activation for serialization.
	Name() string
}

// Logistic is the paper's sigmoid y = 1 / (1 + exp(−αx)) (§2.1). The slope
// parameter α controls the fuzziness of the decision boundary: as |α| grows
// the function approaches a hard limiter (Figure 2).
//
// Note the paper prints the formula as 1/(1+exp(αx)); with a positive α
// that form is strictly decreasing, contradicting the stated "strictly
// increasing" sigmoid property and Figure 2, so we use the conventional
// negative exponent.
type Logistic struct {
	Alpha float64 // slope parameter; 1 gives the standard logistic
}

// Eval returns 1/(1+exp(−αx)).
func (l Logistic) Eval(x float64) float64 {
	return 1 / (1 + math.Exp(-l.Alpha*x))
}

// Deriv returns α·y·(1−y).
func (l Logistic) Deriv(_, y float64) float64 {
	return l.Alpha * y * (1 - y)
}

// Name implements Activation.
func (l Logistic) Name() string { return fmt.Sprintf("logistic(%g)", l.Alpha) }

// Tanh is the hyperbolic-tangent squashing function, a zero-centred
// alternative to the logistic that often trains faster on standardized
// inputs.
type Tanh struct{}

// Eval returns tanh(x).
func (Tanh) Eval(x float64) float64 { return math.Tanh(x) }

// Deriv returns 1 − y².
func (Tanh) Deriv(_, y float64) float64 { return 1 - y*y }

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// ReLU is the rectified linear unit, max(0, x). Included for ablations;
// the paper predates its popularity.
type ReLU struct{}

// Eval returns max(0, x).
func (ReLU) Eval(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// Deriv returns 1 for x > 0 and 0 otherwise.
func (ReLU) Deriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

// Name implements Activation.
func (ReLU) Name() string { return "relu" }

// Identity is the pass-through activation used on output layers for
// regression, so the network range is unbounded.
type Identity struct{}

// Eval returns x.
func (Identity) Eval(x float64) float64 { return x }

// Deriv returns 1.
func (Identity) Deriv(_, _ float64) float64 { return 1 }

// Name implements Activation.
func (Identity) Name() string { return "identity" }

// LogCompress is the signed logarithmic squashing function
// sign(x)·ln(1+|x|) used by logarithmic neural networks (Hines 1996,
// paper ref. [23]) to keep responses bounded-growth and improve
// extrapolation outside the training range (§5.3).
type LogCompress struct{}

// Eval returns sign(x)·ln(1+|x|).
func (LogCompress) Eval(x float64) float64 {
	if x >= 0 {
		return math.Log1p(x)
	}
	return -math.Log1p(-x)
}

// Deriv returns 1/(1+|x|).
func (LogCompress) Deriv(x, _ float64) float64 {
	return 1 / (1 + math.Abs(x))
}

// Name implements Activation.
func (LogCompress) Name() string { return "logcompress" }

// EvalRow applies act to every pre[i], writing out[i]. It type-switches on
// the concrete activation once per row so the hot loop uses direct,
// inlinable calls instead of per-element interface dispatch; the arithmetic
// is identical to calling Eval per element. The Logistic case runs four
// lanes at a time on amd64 hosts that support it (logistic_amd64.go).
//
//nnwc:hotpath
func EvalRow(act Activation, pre, out []float64) {
	out = out[:len(pre)]
	switch a := act.(type) {
	case Identity:
		copy(out, pre)
	case Logistic:
		logisticRow(a.Alpha, pre, out)
	case Tanh:
		for i, v := range pre {
			out[i] = Tanh{}.Eval(v)
		}
	case ReLU:
		for i, v := range pre {
			out[i] = ReLU{}.Eval(v)
		}
	case LogCompress:
		for i, v := range pre {
			out[i] = LogCompress{}.Eval(v)
		}
	default:
		for i, v := range pre {
			out[i] = act.Eval(v)
		}
	}
}

// ScaleByDeriv multiplies dst[i] by act.Deriv(pre[i], y[i]) — the
// back-propagation step that folds the activation derivative into a delta
// row — with the same once-per-row devirtualization as EvalRow. The
// Logistic case runs four lanes at a time on amd64 hosts with AVX.
//
//nnwc:hotpath
func ScaleByDeriv(act Activation, pre, y, dst []float64) {
	pre, y = pre[:len(dst)], y[:len(dst)]
	switch a := act.(type) {
	case Identity:
		// Deriv is 1 everywhere.
	case Logistic:
		scaleByLogisticDeriv(a.Alpha, y, dst)
	case Tanh:
		for i := range dst {
			dst[i] *= Tanh{}.Deriv(pre[i], y[i])
		}
	case ReLU:
		for i := range dst {
			dst[i] *= ReLU{}.Deriv(pre[i], y[i])
		}
	case LogCompress:
		for i := range dst {
			dst[i] *= LogCompress{}.Deriv(pre[i], y[i])
		}
	default:
		for i := range dst {
			dst[i] *= act.Deriv(pre[i], y[i])
		}
	}
}

// ActivationByName reconstructs an activation from its Name() string,
// for model deserialization.
func ActivationByName(name string) (Activation, error) {
	switch name {
	case "tanh":
		return Tanh{}, nil
	case "relu":
		return ReLU{}, nil
	case "identity":
		return Identity{}, nil
	case "logcompress":
		return LogCompress{}, nil
	}
	// Exactly "logistic(" + a finite float + ")": a NaN or infinite slope
	// would make every prediction NaN.
	if s, ok := strings.CutPrefix(name, "logistic("); ok {
		if s, ok = strings.CutSuffix(s, ")"); ok {
			if alpha, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(alpha) && !math.IsInf(alpha, 0) {
				return Logistic{Alpha: alpha}, nil
			}
		}
	}
	return nil, fmt.Errorf("nn: unknown activation %q", name)
}
