// Package linear implements the multi-output linear regression model used
// by the prior work the paper argues against (Chow et al. [2, 20, 21]).
// It serves as the baseline in the model-comparison experiments: a linear
// model matches the paper's workloads well in locally linear regions but
// cannot express the valleys and hills of §5.2–§5.3.
//
// Fitting uses ordinary least squares through a QR factorization, or ridge
// regression (L2-regularized, solved via Cholesky on the normal equations)
// when Lambda > 0.
package linear

import (
	"errors"
	"fmt"

	"nnwc/internal/mat"
	"nnwc/internal/stats"
)

// Model is a fitted linear map ŷ = W·x + b with n inputs and m outputs.
type Model struct {
	W *mat.Matrix // m×n coefficient matrix
	B []float64   // m intercepts
}

// Options configures fitting.
type Options struct {
	// Lambda is the ridge penalty; 0 requests plain OLS. The intercept is
	// never penalized.
	Lambda float64
}

// Fit computes the least-squares linear model mapping xs rows to ys rows.
func Fit(xs, ys [][]float64, opt Options) (*Model, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("linear: need equal, non-zero sample counts")
	}
	n := len(xs[0])
	m := len(ys[0])
	rows := len(xs)
	if rows < n+1 && stats.ExactZero(opt.Lambda) {
		return nil, fmt.Errorf("linear: %d samples cannot determine %d coefficients; add samples or use ridge", rows, n+1)
	}

	// Design matrix with a trailing 1-column for the intercept.
	a := mat.New(rows, n+1)
	for i, x := range xs {
		if len(x) != n {
			return nil, fmt.Errorf("linear: sample %d has %d features, want %d", i, len(x), n)
		}
		copy(a.Row(i)[:n], x)
		a.Set(i, n, 1)
	}
	b := mat.New(rows, m)
	for i, y := range ys {
		if len(y) != m {
			return nil, fmt.Errorf("linear: sample %d has %d targets, want %d", i, len(y), m)
		}
		copy(b.Row(i), y)
	}

	var coef *mat.Matrix
	var err error
	if opt.Lambda > 0 {
		// (AᵀA + λI')x = Aᵀb, with I' zeroing the intercept penalty.
		at := a.T()
		ata := mat.Mul(at, a)
		for d := 0; d < n; d++ { // skip the intercept column n
			ata.Set(d, d, ata.At(d, d)+opt.Lambda)
		}
		coef, err = mat.SolveCholesky(ata, mat.Mul(at, b))
	} else {
		coef, err = mat.SolveLeastSquares(a, b)
	}
	if err != nil {
		return nil, fmt.Errorf("linear: solving normal equations: %w", err)
	}

	model := &Model{W: mat.New(m, n), B: make([]float64, m)}
	for j := 0; j < m; j++ {
		for k := 0; k < n; k++ {
			model.W.Set(j, k, coef.At(k, j))
		}
		model.B[j] = coef.At(n, j)
	}
	return model, nil
}

// Predict returns ŷ = W·x + b.
func (m *Model) Predict(x []float64) []float64 {
	out := m.W.MulVec(x)
	for j := range out {
		out[j] += m.B[j]
	}
	return out
}
