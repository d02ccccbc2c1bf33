// Package surface implements the paper's §5 tuning analysis: evaluating a
// trained model over a 2-D grid of configurations — two parameters swept,
// the rest pinned, like the paper's "(560, x, 16, y)" slices — and
// classifying the resulting response surface into the paper's three
// archetypes: parallel slopes (§5.1, one parameter is irrelevant), valleys
// (§5.2, a trench of minima), and hills (§5.3, an interior maximum).
package surface

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nnwc/internal/core"
	"nnwc/internal/mat"
	"nnwc/internal/obs"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
)

// Slice describes a 2-D cut through the configuration space.
type Slice struct {
	// Fixed is the template configuration; entries at XIndex and YIndex
	// are overwritten by the grid.
	Fixed []float64
	// XIndex and YIndex select the two swept features.
	XIndex, YIndex int
	// XValues and YValues are the grid coordinates.
	XValues, YValues []float64
	// Output selects which performance indicator to evaluate.
	Output int
}

// Validate reports configuration errors in the slice spec.
func (s Slice) Validate(inputDim, outputDim int) error {
	if len(s.Fixed) != inputDim {
		return fmt.Errorf("surface: fixed vector has %d entries, model expects %d", len(s.Fixed), inputDim)
	}
	if s.XIndex < 0 || s.XIndex >= inputDim || s.YIndex < 0 || s.YIndex >= inputDim {
		return errors.New("surface: swept indices out of range")
	}
	if s.XIndex == s.YIndex {
		return errors.New("surface: the two swept indices must differ")
	}
	if len(s.XValues) < 2 || len(s.YValues) < 2 {
		return errors.New("surface: need at least a 2x2 grid")
	}
	if s.Output < 0 || s.Output >= outputDim {
		return errors.New("surface: output index out of range")
	}
	return nil
}

// Grid is an evaluated surface: Z[i][j] is the model's prediction at
// (XValues[i], YValues[j]).
type Grid struct {
	Slice Slice
	Z     [][]float64
}

// Evaluate runs GridKind in process on the scheduler's default worker
// count (sched.SetWorkers). Every Z cell is computed from its own
// configuration vector and written to its own slot, so the surface is
// bit-identical across worker counts.
func Evaluate(p core.Predictor, s Slice, inputDim, outputDim int) (*Grid, error) {
	kind, err := GridKind(p, s, inputDim, outputDim)
	if err != nil {
		return nil, err
	}
	return sched.Execute(context.TODO(), 0, kind)
}

// gridKind is a surface sweep as a sched.Kind: one task per grid row.
type gridKind struct {
	p        core.Predictor
	s        Slice
	inputDim int
}

// GridKind is the model's sweep over the slice's grid as a sched.Kind:
// task i materializes row i (XValues[i] against every YValue) and pushes
// it through the batched forward kernels as one batch, and Reduce stacks
// the rows into the Grid.
func GridKind(p core.Predictor, s Slice, inputDim, outputDim int) (sched.Kind[[]float64, *Grid], error) {
	if err := s.Validate(inputDim, outputDim); err != nil {
		return nil, err
	}
	return &gridKind{p: p, s: s, inputDim: inputDim}, nil
}

func (g *gridKind) Scope() string { return "surface-row" }
func (g *gridKind) Tasks() int    { return len(g.s.XValues) }

func (g *gridKind) Run(ctx context.Context, i int) ([]float64, error) {
	zi := make([]float64, len(g.s.YValues))
	if mp, fast := g.p.(core.MatrixPredictor); fast {
		probeRow(mp, g.s, g.s.XValues[i], g.inputDim, zi)
	} else {
		probeRowSlow(g.p, g.s, g.s.XValues[i], g.inputDim, zi)
	}
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("surface_row",
			obs.Int("row", i),
			obs.Float("x", g.s.XValues[i]),
			obs.Int("cols", len(zi)))
	}
	return zi, nil
}

func (g *gridKind) Reduce(_ context.Context, rows [][]float64) (*Grid, error) {
	return &Grid{Slice: g.s, Z: rows}, nil
}

// probeScratch bundles the batch-sized buffers one grid-row probe needs:
// the configuration matrix (one row per YValue) and the model's predict
// workspace. Pooled so concurrent rows and repeated sweeps reuse buffers
// instead of materializing ~grid-size configuration vectors per call.
type probeScratch struct {
	X mat.Matrix
	w core.PredictWorkspace
}

var probePool = sched.NewPool(func() *probeScratch { return &probeScratch{} })

// probeRow evaluates one grid row (one XValue, every YValue) through the
// zero-alloc matrix path: configurations build in place in the pooled
// scratch matrix and one PredictMatrix call answers the whole row. Row for
// row the values are bit-identical to Predict.
//
//nnwc:hotpath
func probeRow(mp core.MatrixPredictor, s Slice, xv float64, inputDim int, zi []float64) {
	sc := probePool.Get()
	defer probePool.Put(sc)
	sc.X.Reshape(len(s.YValues), inputDim)
	for j, yv := range s.YValues {
		row := sc.X.Row(j)
		copy(row, s.Fixed)
		row[s.XIndex] = xv
		row[s.YIndex] = yv
	}
	out := mp.PredictMatrix(&sc.X, &sc.w)
	for j := range zi {
		zi[j] = out.At(j, s.Output)
	}
}

// probeRowSlow is probeRow for plain Predictors: the same configurations,
// one Predict call each.
func probeRowSlow(p core.Predictor, s Slice, xv float64, inputDim int, zi []float64) {
	x := make([]float64, inputDim)
	copy(x, s.Fixed)
	x[s.XIndex] = xv
	for j, yv := range s.YValues {
		x[s.YIndex] = yv
		zi[j] = p.Predict(x)[s.Output]
	}
}

// Min returns the grid minimum and its coordinates.
func (g *Grid) Min() (value, x, y float64) {
	value = math.Inf(1)
	for i, row := range g.Z {
		for j, v := range row {
			if v < value {
				value, x, y = v, g.Slice.XValues[i], g.Slice.YValues[j]
			}
		}
	}
	return value, x, y
}

// Max returns the grid maximum and its coordinates.
func (g *Grid) Max() (value, x, y float64) {
	value = math.Inf(-1)
	for i, row := range g.Z {
		for j, v := range row {
			if v > value {
				value, x, y = v, g.Slice.XValues[i], g.Slice.YValues[j]
			}
		}
	}
	return value, x, y
}

// Range returns max − min over the grid.
func (g *Grid) Range() float64 {
	lo, _, _ := g.Min()
	hi, _, _ := g.Max()
	return hi - lo
}

// Shape classifies a surface.
type Shape string

const (
	// ShapeFlat means neither parameter moves the indicator appreciably.
	ShapeFlat Shape = "flat"
	// ShapeParallelSlopes is the paper's §5.1 case: one parameter drives
	// the indicator, the other is (locally) irrelevant.
	ShapeParallelSlopes Shape = "parallel-slopes"
	// ShapeValley is the paper's §5.2 case: an interior trench of minima.
	ShapeValley Shape = "valley"
	// ShapeHill is the paper's §5.3 case: an interior crest of maxima.
	ShapeHill Shape = "hill"
	// ShapeSlope is a general monotone surface along both axes.
	ShapeSlope Shape = "slope"
)

// Analysis is the outcome of classifying a grid.
type Analysis struct {
	Shape Shape
	// XEffect and YEffect are the mean absolute change of the indicator
	// along each axis, normalized by the grid's value range.
	XEffect, YEffect float64
	// InteriorMin/InteriorMax report whether the extremum lies strictly
	// inside the grid along its row/column.
	InteriorMin, InteriorMax bool
	// Advice is a human-readable tuning hint in the spirit of §5.
	Advice string
}

// Classify analyses the grid's variation pattern.
//
// The decision order mirrors the paper's taxonomy: a grid whose total range
// is negligible is flat; a grid where one axis contributes a small fraction
// of the other's variation shows parallel slopes (§5.1); a grid with a
// trench of per-column interior minima is a valley (§5.2) and with a crest
// of interior maxima a hill (§5.3) — the paper's valley "from (0,18) to
// (20,20)" is exactly such a trench: for every value of one parameter, the
// optimum of the other is interior, and following it requires moving both
// parameters together. Everything else is a plain slope.
//
// Precedence note: when one axis is (nearly) irrelevant, parallel slopes
// wins even if the dominant axis contains a trench — the actionable advice
// ("don't tune that parameter") is the same one the paper draws from
// Figure 4. The trench evidence remains available via InteriorMin and
// InteriorMax.
func Classify(g *Grid) Analysis {
	const (
		irrelevance = 0.30
		flatness    = 0.05
	)
	a := Analysis{
		XEffect: axisEffect(g, true),
		YEffect: axisEffect(g, false),
	}
	lo, _, _ := g.Min()
	hi, _, _ := g.Max()
	mean := (lo + hi) / 2
	if hi-lo <= flatness*math.Abs(mean) {
		a.Shape = ShapeFlat
		a.Advice = "neither parameter affects this indicator here; tune elsewhere"
		return a
	}
	a.InteriorMin = trench(g, true)
	a.InteriorMax = trench(g, false)

	xIrr := a.XEffect < irrelevance*math.Max(a.XEffect, a.YEffect) || stats.ExactZero(a.XEffect)
	yIrr := a.YEffect < irrelevance*math.Max(a.XEffect, a.YEffect) || stats.ExactZero(a.YEffect)
	switch {
	case xIrr != yIrr:
		a.Shape = ShapeParallelSlopes
		if xIrr {
			a.Advice = "only the Y parameter matters; tuning the X parameter is wasted effort"
		} else {
			a.Advice = "only the X parameter matters; tuning the Y parameter is wasted effort"
		}
	case a.InteriorMin && !a.InteriorMax:
		a.Shape = ShapeValley
		a.Advice = "a trench of minima runs through the interior; adjust both parameters together to stay in (or out of) the valley"
	case a.InteriorMax && !a.InteriorMin:
		a.Shape = ShapeHill
		a.Advice = "the optimum is an interior crest; one-parameter-at-a-time sweeps can miss it entirely"
	case a.InteriorMin && a.InteriorMax:
		a.Shape = ShapeValley
		a.Advice = "interior minimum and maximum both present; the surface is strongly non-linear"
	default:
		a.Shape = ShapeSlope
		a.Advice = "the indicator varies monotonically; push both parameters toward the favourable corner"
	}
	return a
}

// trench reports whether the grid contains a trench (isMin) or crest
// (!isMin): in a clear majority of lines along one axis, the extremum over
// the other axis is interior and beats that line's boundary cells by a
// margin of the grid range. Both orientations are tried.
func trench(g *Grid, isMin bool) bool {
	rangeZ := g.Range()
	if stats.ExactZero(rangeZ) {
		return false
	}
	better := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	// lineInterior scans one line of values and reports whether its
	// extremum is interior with margin against both endpoints. Walls are
	// often very asymmetric (a saturation cliff on one side, a gentle
	// over-provisioning rise on the other), so the margin blends a small
	// fraction of the global range with a fraction of the trench floor's
	// own level.
	lineInterior := func(vals []float64) bool {
		bi := 0
		for i, v := range vals {
			if better(v, vals[bi]) {
				bi = i
			}
		}
		if bi == 0 || bi == len(vals)-1 {
			return false
		}
		margin := math.Max(0.015*rangeZ, 0.03*math.Abs(vals[bi]))
		worstBoundary := vals[0]
		if better(vals[len(vals)-1], worstBoundary) {
			worstBoundary = vals[len(vals)-1]
		}
		gap := worstBoundary - vals[bi]
		if !isMin {
			gap = -gap
		}
		return gap > margin
	}

	const quorum = 0.7
	// Orientation 1: for each x, scan along y.
	hits := 0
	for i := range g.Slice.XValues {
		if lineInterior(g.Z[i]) {
			hits++
		}
	}
	if float64(hits) >= quorum*float64(len(g.Slice.XValues)) {
		return true
	}
	// Orientation 2: for each y, scan along x.
	hits = 0
	col := make([]float64, len(g.Slice.XValues))
	for j := range g.Slice.YValues {
		for i := range g.Slice.XValues {
			col[i] = g.Z[i][j]
		}
		if lineInterior(col) {
			hits++
		}
	}
	return float64(hits) >= quorum*float64(len(g.Slice.YValues))
}

// axisEffect measures how much the indicator moves along one axis,
// averaged over the other, normalized by the grid range.
func axisEffect(g *Grid, alongX bool) float64 {
	rangeZ := g.Range()
	if stats.ExactZero(rangeZ) {
		return 0
	}
	var total float64
	var count int
	if alongX {
		for j := range g.Slice.YValues {
			for i := 1; i < len(g.Slice.XValues); i++ {
				total += math.Abs(g.Z[i][j] - g.Z[i-1][j])
				count++
			}
		}
	} else {
		for i := range g.Slice.XValues {
			for j := 1; j < len(g.Slice.YValues); j++ {
				total += math.Abs(g.Z[i][j] - g.Z[i][j-1])
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	// Mean step, scaled to the number of steps along the axis so the
	// value approximates "fraction of the range traversed along this
	// axis".
	steps := len(g.Slice.XValues) - 1
	if !alongX {
		steps = len(g.Slice.YValues) - 1
	}
	return total / float64(count) * float64(steps) / rangeZ
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// Path traces an extremal trajectory across the grid: for each value of
// the primary axis, the cross-axis coordinate and height of the line's
// optimum. This is the §5.2 "valley" made actionable — following the path
// is exactly the paper's "adjust two configuration parameters concurrently
// to stay in the valley".
type Path struct {
	// X is the primary-axis coordinate, Y the cross-axis coordinate of the
	// extremum at that X, Z its value.
	X, Y, Z []float64
}

// ExtremalPath extracts the per-line optimum. alongX selects the primary
// axis: when true, each XValue contributes one point whose Y is the
// arg-optimum over YValues (and vice versa). isMin selects valleys (true)
// or crests (false).
func ExtremalPath(g *Grid, isMin, alongX bool) Path {
	better := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	var p Path
	if alongX {
		for i, xv := range g.Slice.XValues {
			bj := 0
			for j := range g.Slice.YValues {
				if better(g.Z[i][j], g.Z[i][bj]) {
					bj = j
				}
			}
			p.X = append(p.X, xv)
			p.Y = append(p.Y, g.Slice.YValues[bj])
			p.Z = append(p.Z, g.Z[i][bj])
		}
		return p
	}
	for j, yv := range g.Slice.YValues {
		bi := 0
		for i := range g.Slice.XValues {
			if better(g.Z[i][j], g.Z[bi][j]) {
				bi = i
			}
		}
		p.X = append(p.X, g.Slice.XValues[bi])
		p.Y = append(p.Y, yv)
		p.Z = append(p.Z, g.Z[bi][j])
	}
	return p
}
