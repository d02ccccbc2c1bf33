package surface

import (
	"math"
	"testing"

	"nnwc/internal/sched"
)

// funcPredictor adapts a plain function to core.Predictor for testing.
type funcPredictor func(x []float64) []float64

func (f funcPredictor) Predict(x []float64) []float64 { return f(x) }

func grid2D(f func(x, y float64) float64, xs, ys []float64) *Grid {
	sl := Slice{
		Fixed:   []float64{0, 0},
		XIndex:  0,
		YIndex:  1,
		XValues: xs,
		YValues: ys,
		Output:  0,
	}
	p := funcPredictor(func(v []float64) []float64 { return []float64{f(v[0], v[1])} })
	g, err := Evaluate(p, sl, 2, 1)
	if err != nil {
		panic(err)
	}
	return g
}

func TestEvaluateFillsGrid(t *testing.T) {
	g := grid2D(func(x, y float64) float64 { return x + 10*y }, Linspace(0, 3, 4), Linspace(0, 2, 3))
	if len(g.Z) != 4 || len(g.Z[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(g.Z), len(g.Z[0]))
	}
	if g.Z[2][1] != 2+10*1 {
		t.Fatalf("Z[2][1] = %v", g.Z[2][1])
	}
}

func TestEvaluatePreservesFixedValues(t *testing.T) {
	var seen []float64
	p := funcPredictor(func(v []float64) []float64 {
		seen = append([]float64(nil), v...)
		return []float64{0}
	})
	sl := Slice{
		Fixed:   []float64{560, 0, 16, 0},
		XIndex:  1,
		YIndex:  3,
		XValues: []float64{5, 6},
		YValues: []float64{7, 8},
		Output:  0,
	}
	// One worker: the predictor records into seen without synchronization.
	if _, err := Evaluate(p, sl, 4, 1); err != nil {
		t.Fatal(err)
	}
	if seen[0] != 560 || seen[2] != 16 {
		t.Fatalf("fixed entries were clobbered: %v", seen)
	}
}

func TestSliceValidation(t *testing.T) {
	good := Slice{Fixed: []float64{0, 0}, XIndex: 0, YIndex: 1,
		XValues: []float64{1, 2}, YValues: []float64{1, 2}, Output: 0}
	if err := good.Validate(2, 1); err != nil {
		t.Fatal(err)
	}
	cases := []Slice{
		{Fixed: []float64{0}, XIndex: 0, YIndex: 1, XValues: []float64{1, 2}, YValues: []float64{1, 2}},               // fixed too short
		{Fixed: []float64{0, 0}, XIndex: 0, YIndex: 0, XValues: []float64{1, 2}, YValues: []float64{1, 2}},            // same axis twice
		{Fixed: []float64{0, 0}, XIndex: 0, YIndex: 5, XValues: []float64{1, 2}, YValues: []float64{1, 2}},            // out of range
		{Fixed: []float64{0, 0}, XIndex: 0, YIndex: 1, XValues: []float64{1}, YValues: []float64{1, 2}},               // 1-point grid
		{Fixed: []float64{0, 0}, XIndex: 0, YIndex: 1, XValues: []float64{1, 2}, YValues: []float64{1, 2}, Output: 3}, // output range
	}
	for i, s := range cases {
		if err := s.Validate(2, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMinMaxRange(t *testing.T) {
	g := grid2D(func(x, y float64) float64 { return x * y }, Linspace(-2, 2, 5), Linspace(-3, 3, 7))
	lo, lx, ly := g.Min()
	hi, hx, hy := g.Max()
	if lo != -6 || hi != 6 {
		t.Fatalf("min %v max %v", lo, hi)
	}
	if lx*ly != -6 || hx*hy != 6 {
		t.Fatalf("extrema coordinates wrong: (%v,%v) (%v,%v)", lx, ly, hx, hy)
	}
	if g.Range() != 12 {
		t.Fatalf("range %v", g.Range())
	}
}

func TestClassifyFlat(t *testing.T) {
	g := grid2D(func(x, y float64) float64 { return 100 + 0.001*x }, Linspace(0, 1, 5), Linspace(0, 1, 5))
	a := Classify(g)
	if a.Shape != ShapeFlat {
		t.Fatalf("flat surface classified as %s", a.Shape)
	}
}

func TestClassifyParallelSlopes(t *testing.T) {
	// Strong dependence on y, none on x — the paper's Figure 4.
	g := grid2D(func(x, y float64) float64 { return 100 - 8*y }, Linspace(0, 10, 8), Linspace(0, 10, 8))
	a := Classify(g)
	if a.Shape != ShapeParallelSlopes {
		t.Fatalf("parallel slopes classified as %s (x %v y %v)", a.Shape, a.XEffect, a.YEffect)
	}
}

func TestClassifyValley(t *testing.T) {
	// Bowl along x for every y, with y pulling its own weight — the
	// paper's Figure 7 trench, where both parameters matter.
	g := grid2D(func(x, y float64) float64 {
		return 50 + 3*(x-5)*(x-5) + 8*y
	}, Linspace(0, 10, 11), Linspace(0, 10, 11))
	a := Classify(g)
	if a.Shape != ShapeValley {
		t.Fatalf("valley classified as %s", a.Shape)
	}
	if !a.InteriorMin {
		t.Fatal("interior minimum not detected")
	}
}

func TestClassifyHill(t *testing.T) {
	// Dome — the paper's Figure 8.
	g := grid2D(func(x, y float64) float64 {
		return 500 - 4*(x-5)*(x-5) - 4*(y-5)*(y-5)
	}, Linspace(0, 10, 11), Linspace(0, 10, 11))
	a := Classify(g)
	if a.Shape != ShapeHill {
		t.Fatalf("hill classified as %s", a.Shape)
	}
	if !a.InteriorMax {
		t.Fatal("interior maximum not detected")
	}
}

func TestClassifySlope(t *testing.T) {
	g := grid2D(func(x, y float64) float64 { return 10*x + 12*y }, Linspace(0, 10, 8), Linspace(0, 10, 8))
	a := Classify(g)
	if a.Shape != ShapeSlope {
		t.Fatalf("plane classified as %s", a.Shape)
	}
}

func TestClassifyAsymmetricValley(t *testing.T) {
	// One steep wall, one shallow wall — like a thread-pool response
	// time: saturation cliff at low x, gentle overhead rise at high x.
	g := grid2D(func(x, y float64) float64 {
		steep := 400 * math.Exp(-x)
		gentle := 2 * x
		return 50 + steep + gentle + 14*y
	}, Linspace(0, 20, 11), Linspace(0, 10, 6))
	a := Classify(g)
	if a.Shape != ShapeValley {
		t.Fatalf("asymmetric valley classified as %s", a.Shape)
	}
}

func TestClassifyTrenchAlongIrrelevantAxisIsParallel(t *testing.T) {
	// When the trench's floor direction is essentially irrelevant, the
	// irrelevance signal wins (Figure 4 semantics): the tuning advice
	// "don't bother with x" matters more than the faint valley. The
	// trench information is still exposed through InteriorMin.
	g := grid2D(func(x, y float64) float64 {
		return 50 + 3*(x-5)*(x-5) + 0.2*y
	}, Linspace(0, 10, 11), Linspace(0, 10, 11))
	a := Classify(g)
	if a.Shape != ShapeParallelSlopes {
		t.Fatalf("classified as %s", a.Shape)
	}
	if !a.InteriorMin {
		t.Fatal("trench info lost")
	}
}

func TestAdviceIsAlwaysSet(t *testing.T) {
	grids := []*Grid{
		grid2D(func(x, y float64) float64 { return 1 }, Linspace(0, 1, 3), Linspace(0, 1, 3)),
		grid2D(func(x, y float64) float64 { return x }, Linspace(0, 1, 3), Linspace(0, 1, 3)),
		grid2D(func(x, y float64) float64 { return x + y }, Linspace(0, 1, 3), Linspace(0, 1, 3)),
	}
	for i, g := range grids {
		if Classify(g).Advice == "" {
			t.Errorf("grid %d: empty advice", i)
		}
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("linspace %v", v)
		}
	}
	if len(Linspace(3, 9, 1)) != 1 {
		t.Fatal("n<2 should return single point")
	}
	single := Linspace(3, 9, 1)
	if single[0] != 3 {
		t.Fatal("single point should be lo")
	}
}

func TestExtremalPathFollowsTrench(t *testing.T) {
	// Valley floor at x = 5 + 0.2*y: a slanted trench.
	g := grid2D(func(x, y float64) float64 {
		c := 5 + 0.2*y
		return 10 + (x-c)*(x-c) + 0.5*y
	}, Linspace(0, 10, 21), Linspace(0, 10, 11))
	p := ExtremalPath(g, true, false) // for each y, the best x
	if len(p.X) != 11 {
		t.Fatalf("path has %d points", len(p.X))
	}
	for k, y := range p.Y {
		wantX := 5 + 0.2*y
		if math.Abs(p.X[k]-wantX) > 0.51 { // grid step is 0.5
			t.Fatalf("trench at y=%v found at x=%v, want ~%v", y, p.X[k], wantX)
		}
	}
	// Path heights must be the grid minima of their lines.
	for k := range p.Z {
		if p.Z[k] > 10+0.5*p.Y[k]+0.3 {
			t.Fatalf("path height %v above the floor", p.Z[k])
		}
	}
}

func TestExtremalPathCrest(t *testing.T) {
	g := grid2D(func(x, y float64) float64 {
		return -(x - 3) * (x - 3)
	}, Linspace(0, 10, 11), Linspace(0, 1, 3))
	p := ExtremalPath(g, false, true) // for each x, best y (flat in y)
	if len(p.X) != 11 {
		t.Fatalf("path length %d", len(p.X))
	}
	q := ExtremalPath(g, false, false) // for each y, best x = 3
	for _, x := range q.X {
		if x != 3 {
			t.Fatalf("crest at x=%v, want 3", x)
		}
	}
}

func TestEvaluateWorkersBitIdentical(t *testing.T) {
	xs, ys := Linspace(-2, 2, 17), Linspace(-1, 3, 11)
	sl := Slice{
		Fixed:   []float64{0, 0},
		XIndex:  0,
		YIndex:  1,
		XValues: xs,
		YValues: ys,
		Output:  0,
	}
	p := funcPredictor(func(v []float64) []float64 {
		return []float64{math.Sin(3*v[0]) * math.Exp(0.2*v[1])}
	})
	defer sched.SetWorkers(0)
	sched.SetWorkers(1)
	ref, err := Evaluate(p, sl, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		sched.SetWorkers(w)
		got, err := Evaluate(p, sl, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Z {
			for j := range ref.Z[i] {
				if got.Z[i][j] != ref.Z[i][j] {
					t.Fatalf("workers=%d Z[%d][%d] = %v, workers=1 gave %v", w, i, j, got.Z[i][j], ref.Z[i][j])
				}
			}
		}
	}
}
