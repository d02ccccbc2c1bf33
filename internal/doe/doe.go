// Package doe implements Design-of-Experiments sample planners. The prior
// work the paper compares against ([2, 20, 21], §6) trained linear models
// "in the Design of Experiments (DOE) approach" with carefully designed
// runs; the paper's own method instead consumes "a rough mixture of data
// points". This package provides both styles so the sample-efficiency
// trade-off can be measured: full and fractional factorial grids,
// uniform-random designs, and Latin hypercube sampling.
//
// A Design is an abstract plan over the unit cube [0,1)^d; Scale maps it
// onto real parameter ranges (optionally snapping to integers), ready to
// feed the three-tier simulator or any other sample collector.
package doe

import (
	"errors"
	"fmt"
	"math"

	"nnwc/internal/rng"
)

// Design generates points in the unit cube [0,1)^d.
type Design interface {
	// Points returns n points of dimensionality d.
	Points(n, d int) ([][]float64, error)
	// Name identifies the design in reports.
	Name() string
}

// FullFactorial lays an evenly spaced grid with Levels points per
// dimension. Points ignores the requested n and returns Levels^d points —
// the classical DOE grid; the error grows combinatorially with d, which is
// exactly the weakness the paper's rough-mixture approach sidesteps.
type FullFactorial struct {
	Levels int
}

// Points implements Design.
func (f FullFactorial) Points(_, d int) ([][]float64, error) {
	if f.Levels < 2 {
		return nil, errors.New("doe: full factorial needs >= 2 levels")
	}
	if d < 1 {
		return nil, errors.New("doe: dimension must be positive")
	}
	total := 1
	for i := 0; i < d; i++ {
		total *= f.Levels
		if total > 1<<20 {
			return nil, fmt.Errorf("doe: %d^%d factorial is too large", f.Levels, d)
		}
	}
	out := make([][]float64, 0, total)
	idx := make([]int, d)
	for {
		p := make([]float64, d)
		for j, lv := range idx {
			p[j] = float64(lv) / float64(f.Levels-1)
			// Keep points in [0,1): shrink the top level marginally so
			// Scale's integer snapping still lands on the max value.
			if p[j] >= 1 {
				p[j] = 1 - 1e-12
			}
		}
		out = append(out, p)
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < f.Levels {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	return out, nil
}

// Name implements Design.
func (f FullFactorial) Name() string { return fmt.Sprintf("factorial(%d)", f.Levels) }

// UniformRandom scatters n points i.i.d. uniformly — the paper's "rough
// mixture of data points".
type UniformRandom struct {
	Seed uint64
}

// Points implements Design.
func (u UniformRandom) Points(n, d int) ([][]float64, error) {
	if n < 1 || d < 1 {
		return nil, errors.New("doe: n and d must be positive")
	}
	src := rng.New(u.Seed)
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for j := range p {
			p[j] = src.Float64()
		}
		out[i] = p
	}
	return out, nil
}

// Name implements Design.
func (u UniformRandom) Name() string { return "uniform-random" }

// LatinHypercube produces n points whose projection onto every dimension
// hits each of n equal bins exactly once — far better space coverage than
// uniform random at the same budget.
type LatinHypercube struct {
	Seed uint64
	// Centered places points at bin centres instead of jittering within
	// the bin.
	Centered bool
}

// Points implements Design.
func (l LatinHypercube) Points(n, d int) ([][]float64, error) {
	if n < 1 || d < 1 {
		return nil, errors.New("doe: n and d must be positive")
	}
	src := rng.New(l.Seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		perm := src.Perm(n)
		for i := 0; i < n; i++ {
			offset := 0.5
			if !l.Centered {
				offset = src.Float64()
			}
			out[i][j] = (float64(perm[i]) + offset) / float64(n)
		}
	}
	return out, nil
}

// Name implements Design.
func (l LatinHypercube) Name() string { return "latin-hypercube" }

// Dimension describes one real parameter's range for Scale.
type Dimension struct {
	Name    string
	Lo, Hi  float64
	Integer bool // snap scaled values to whole numbers
}

// Scale maps unit-cube points onto the given parameter ranges.
func Scale(points [][]float64, dims []Dimension) ([][]float64, error) {
	if len(dims) == 0 {
		return nil, errors.New("doe: no dimensions")
	}
	for _, dim := range dims {
		if dim.Hi < dim.Lo {
			return nil, fmt.Errorf("doe: dimension %q has Hi < Lo", dim.Name)
		}
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		if len(p) != len(dims) {
			return nil, fmt.Errorf("doe: point %d has %d coordinates, want %d", i, len(p), len(dims))
		}
		row := make([]float64, len(dims))
		for j, dim := range dims {
			v := dim.Lo + p[j]*(dim.Hi-dim.Lo)
			if dim.Integer {
				v = math.Round(v)
				if v < dim.Lo {
					v = math.Ceil(dim.Lo)
				}
				if v > dim.Hi {
					v = math.Floor(dim.Hi)
				}
			}
			row[j] = v
		}
		out[i] = row
	}
	return out, nil
}
