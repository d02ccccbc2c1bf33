// Package poly implements the "other non-linear functions such as
// polynomial and logarithmic" the paper's §7 proposes as analytic
// alternatives to the neural-network model: fixed feature maps (polynomial
// expansion with optional interaction terms, or logarithmic transforms)
// followed by a linear least-squares fit.
//
// These models trade the MLP's generality for analytical interpretability,
// exactly the trade-off §5.3 discusses.
package poly

import (
	"errors"
	"fmt"
	"math"

	"nnwc/internal/linear"
	"nnwc/internal/preprocess"
)

// FeatureMap expands an input vector into a derived feature vector.
type FeatureMap interface {
	// Expand returns the derived features for x.
	Expand(x []float64) []float64
	// Size returns the expanded dimensionality for n raw inputs.
	Size(n int) int
	// Name identifies the map in reports.
	Name() string
}

// Polynomial expands each feature to powers 1..Degree and, when
// Interactions is true, adds all pairwise products xᵢ·xⱼ (i<j).
type Polynomial struct {
	Degree       int
	Interactions bool
}

// Expand implements FeatureMap.
func (p Polynomial) Expand(x []float64) []float64 {
	deg := p.Degree
	if deg < 1 {
		deg = 1
	}
	out := make([]float64, 0, p.Size(len(x)))
	for _, v := range x {
		pw := v
		for d := 1; d <= deg; d++ {
			out = append(out, pw)
			pw *= v
		}
	}
	if p.Interactions {
		for i := 0; i < len(x); i++ {
			for j := i + 1; j < len(x); j++ {
				out = append(out, x[i]*x[j])
			}
		}
	}
	return out
}

// Size implements FeatureMap.
func (p Polynomial) Size(n int) int {
	deg := p.Degree
	if deg < 1 {
		deg = 1
	}
	size := n * deg
	if p.Interactions {
		size += n * (n - 1) / 2
	}
	return size
}

// Name implements FeatureMap.
func (p Polynomial) Name() string {
	if p.Interactions {
		return fmt.Sprintf("poly(%d)+interactions", p.Degree)
	}
	return fmt.Sprintf("poly(%d)", p.Degree)
}

// Logarithmic maps each feature to (x, ln(1+|x|)·sign(x)), giving the
// model logarithmic basis functions alongside the raw linear terms.
type Logarithmic struct{}

// Expand implements FeatureMap.
func (Logarithmic) Expand(x []float64) []float64 {
	out := make([]float64, 0, 2*len(x))
	for _, v := range x {
		out = append(out, v)
		if v >= 0 {
			out = append(out, math.Log1p(v))
		} else {
			out = append(out, -math.Log1p(-v))
		}
	}
	return out
}

// Size implements FeatureMap.
func (Logarithmic) Size(n int) int { return 2 * n }

// Name implements FeatureMap.
func (Logarithmic) Name() string { return "log" }

// Model is a linear model over a fixed feature expansion, optionally
// preceded by z-score standardization of the raw features.
type Model struct {
	Map    FeatureMap
	Linear *linear.Model

	scaler preprocess.Scaler
}

// Options configures fitting.
type Options struct {
	// Lambda is the ridge penalty passed to the linear solve. Strongly
	// recommended for Degree ≥ 2: powers of features that take only a few
	// distinct levels are exactly collinear, and raw-magnitude powers
	// condition the normal equations terribly.
	Lambda float64
	// Standardize z-scores the raw features before expansion, which keeps
	// the expanded design matrix well conditioned. On by default in
	// FitStandardized.
	Standardize bool
}

// Fit expands every input row through fmap and solves the least-squares
// problem in the expanded space.
func Fit(fmap FeatureMap, xs, ys [][]float64, opt Options) (*Model, error) {
	if fmap == nil {
		return nil, errors.New("poly: feature map is required")
	}
	if len(xs) == 0 {
		return nil, errors.New("poly: no samples")
	}
	var scaler preprocess.Scaler = preprocess.NewIdentity()
	if opt.Standardize {
		scaler = preprocess.NewStandardizer()
	}
	if err := scaler.Fit(xs); err != nil {
		return nil, err
	}
	ex := make([][]float64, len(xs))
	for i, x := range xs {
		ex[i] = fmap.Expand(scaler.Transform(x))
	}
	lm, err := linear.Fit(ex, ys, linear.Options{Lambda: opt.Lambda})
	if err != nil {
		return nil, fmt.Errorf("poly: fitting expanded model: %w", err)
	}
	return &Model{Map: fmap, Linear: lm, scaler: scaler}, nil
}

// Predict returns the model output for a raw (unexpanded) input.
func (m *Model) Predict(x []float64) []float64 {
	return m.Linear.Predict(m.Map.Expand(m.scaler.Transform(x)))
}
