package recommend

import (
	"math"
	"testing"
)

type funcPredictor func(x []float64) []float64

func (f funcPredictor) Predict(x []float64) []float64 { return f(x) }

func TestSLAScoreFeasible(t *testing.T) {
	s := SLAScore(2, []float64{10, 20, math.Inf(1)})
	// Within bounds: score is the maximized indicator.
	if got := s([]float64{5, 15, 400}); got != 400 {
		t.Fatalf("feasible score %v", got)
	}
}

func TestSLAScoreViolationsSortBelowFeasible(t *testing.T) {
	s := SLAScore(2, []float64{10, 20, math.Inf(1)})
	bad := s([]float64{50, 15, 9999})
	good := s([]float64{5, 15, 1})
	if bad >= good {
		t.Fatalf("violated config (%v) scored above feasible (%v)", bad, good)
	}
	// Worse violations score worse.
	worse := s([]float64{500, 15, 9999})
	if worse >= bad {
		t.Fatalf("bigger violation not penalized more: %v vs %v", worse, bad)
	}
}

func TestSLAScoreNaNBoundSkipped(t *testing.T) {
	s := SLAScore(1, []float64{math.NaN(), 0})
	if got := s([]float64{1e9, 42}); got != 42 {
		t.Fatalf("NaN bound not skipped: %v", got)
	}
}

func TestSpaceValidate(t *testing.T) {
	good := Space{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Space{
		{},
		{Lo: []float64{0}, Hi: []float64{1, 2}},
		{Lo: []float64{2}, Hi: []float64{1}},
		{Lo: []float64{0}, Hi: []float64{1}, Integer: []bool{true, false}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad space %d accepted", i)
		}
	}
}

func TestSearchFindsKnownOptimum(t *testing.T) {
	// Maximize −(x−3)² − (y+1)²: optimum at (3, −1).
	p := funcPredictor(func(x []float64) []float64 {
		return []float64{-(x[0]-3)*(x[0]-3) - (x[1]+1)*(x[1]+1)}
	})
	space := Space{Lo: []float64{-10, -10}, Hi: []float64{10, 10}}
	res, err := Search(p, space, weightedScore([]float64{1}), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best.X[0]-3) > 0.3 || math.Abs(res.Best.X[1]+1) > 0.3 {
		t.Fatalf("optimum found at %v, want near (3,-1)", res.Best.X)
	}
	if len(res.Top) == 0 || res.Top[0].Score != res.Best.Score {
		t.Fatal("Top[0] must be the best candidate")
	}
	// Top is sorted descending.
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Score > res.Top[i-1].Score {
			t.Fatal("Top not sorted")
		}
	}
}

func TestSearchRespectsIntegerMask(t *testing.T) {
	p := funcPredictor(func(x []float64) []float64 { return []float64{-math.Abs(x[0] - 4.3)} })
	space := Space{Lo: []float64{0}, Hi: []float64{10}, Integer: []bool{true}}
	res, err := Search(p, space, weightedScore([]float64{1}), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Top {
		if c.X[0] != math.Round(c.X[0]) {
			t.Fatalf("non-integer candidate %v", c.X[0])
		}
	}
	if res.Best.X[0] != 4 {
		t.Fatalf("integer optimum %v, want 4", res.Best.X[0])
	}
}

func TestSearchStaysInBounds(t *testing.T) {
	p := funcPredictor(func(x []float64) []float64 { return []float64{x[0] + x[1]} })
	space := Space{Lo: []float64{2, -5}, Hi: []float64{3, -4}}
	res, err := Search(p, space, weightedScore([]float64{1}), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	all, err := explore(p, space, weightedScore([]float64{1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		if c.X[0] < 2 || c.X[0] > 3 || c.X[1] < -5 || c.X[1] > -4 {
			t.Fatalf("candidate out of bounds: %v", c.X)
		}
	}
	// Maximum of x+y on the box is at the upper corner.
	if math.Abs(res.Best.X[0]-3) > 1e-9 || math.Abs(res.Best.X[1]+4) > 1e-9 {
		t.Fatalf("corner optimum missed: %v", res.Best.X)
	}
}

func TestSearchDegenerateDimension(t *testing.T) {
	// A pinned dimension (Lo == Hi) must stay pinned.
	p := funcPredictor(func(x []float64) []float64 { return []float64{-x[1] * x[1]} })
	space := Space{Lo: []float64{560, -5}, Hi: []float64{560, 5}}
	res, err := Search(p, space, weightedScore([]float64{1}), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Top {
		if c.X[0] != 560 {
			t.Fatalf("pinned dimension moved: %v", c.X[0])
		}
	}
}

func TestSearchErrors(t *testing.T) {
	p := funcPredictor(func(x []float64) []float64 { return []float64{0} })
	if _, err := Search(p, Space{}, weightedScore([]float64{1}), Options{}); err == nil {
		t.Fatal("invalid space accepted")
	}
	if _, err := Search(p, Space{Lo: []float64{0}, Hi: []float64{1}}, nil, Options{}); err == nil {
		t.Fatal("nil scorer accepted")
	}
	// Grid explosion guard.
	big := Space{Lo: make([]float64, 10), Hi: make([]float64, 10)}
	for i := range big.Hi {
		big.Hi[i] = 1
	}
	if _, err := Search(p, big, weightedScore([]float64{1}), Options{}); err == nil {
		t.Fatal("8^10 grid accepted")
	}
}

func TestSearchDeterministic(t *testing.T) {
	p := funcPredictor(func(x []float64) []float64 { return []float64{math.Sin(x[0]) * math.Cos(x[1])} })
	space := Space{Lo: []float64{0, 0}, Hi: []float64{6, 6}}
	a, err := Search(p, space, weightedScore([]float64{1}), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(p, space, weightedScore([]float64{1}), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Score != b.Best.Score || a.Best.X[0] != b.Best.X[0] {
		t.Fatal("search not deterministic")
	}
}

func TestDominates(t *testing.T) {
	objs := []Objective{Minimize, Maximize}
	if !dominates([]float64{1, 10}, []float64{2, 5}, objs) {
		t.Fatal("clear dominance missed")
	}
	if dominates([]float64{1, 5}, []float64{2, 10}, objs) {
		t.Fatal("trade-off wrongly dominated")
	}
	if dominates([]float64{1, 10}, []float64{1, 10}, objs) {
		t.Fatal("equal vectors must not dominate")
	}
	// Ignored objectives play no role.
	if !dominates([]float64{1, 0}, []float64{2, 99}, []Objective{Minimize, Ignore}) {
		t.Fatal("ignored objective affected dominance")
	}
}

func TestParetoFrontOnKnownTradeoff(t *testing.T) {
	// y0 = x (minimize), y1 = x (maximize): every x is Pareto-optimal.
	p := funcPredictor(func(x []float64) []float64 { return []float64{x[0], x[0]} })
	space := Space{Lo: []float64{0}, Hi: []float64{10}}
	front, err := ParetoFront(p, space, []Objective{Minimize, Maximize}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 10 {
		t.Fatalf("pure trade-off front has only %d points", len(front))
	}
	// No member may dominate another.
	objs := []Objective{Minimize, Maximize}
	for i := range front {
		for j := range front {
			if i != j && dominates(front[i].Y, front[j].Y, objs) {
				t.Fatal("front contains a dominated point")
			}
		}
	}
}

func TestParetoFrontCollapsesWhenAligned(t *testing.T) {
	// Both objectives improve together: the front is (nearly) a single
	// point at the shared optimum.
	p := funcPredictor(func(x []float64) []float64 {
		v := -(x[0] - 3) * (x[0] - 3)
		return []float64{-v, v} // minimize -v and maximize v agree
	})
	space := Space{Lo: []float64{0}, Hi: []float64{10}}
	front, err := ParetoFront(p, space, []Objective{Minimize, Maximize}, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 {
		t.Fatalf("aligned objectives should give 1 front point, got %d", len(front))
	}
	if math.Abs(front[0].X[0]-3) > 0.3 {
		t.Fatalf("front point at %v, want ~3", front[0].X[0])
	}
}

func TestParetoFrontSorted(t *testing.T) {
	p := funcPredictor(func(x []float64) []float64 { return []float64{x[0], 10 - x[0]} })
	space := Space{Lo: []float64{0}, Hi: []float64{10}}
	front, err := ParetoFront(p, space, []Objective{Minimize, Maximize}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Y[0] < front[i-1].Y[0] {
			t.Fatal("front not sorted by the first active objective")
		}
	}
}

func TestParetoFrontErrors(t *testing.T) {
	p := funcPredictor(func(x []float64) []float64 { return []float64{0} })
	if _, err := ParetoFront(p, Space{}, []Objective{Minimize}, Options{}); err == nil {
		t.Fatal("invalid space accepted")
	}
	good := Space{Lo: []float64{0}, Hi: []float64{1}}
	if _, err := ParetoFront(p, good, []Objective{Ignore}, Options{}); err == nil {
		t.Fatal("all-Ignore objectives accepted")
	}
}

func TestWeightedScore(t *testing.T) {
	s := weightedScore([]float64{-1, 2})
	if got := s([]float64{3, 5}); got != 7 {
		t.Fatalf("score %v", got)
	}
	// Extra indicator entries beyond the weights are ignored.
	if got := s([]float64{3, 5, 100}); got != 7 {
		t.Fatalf("score with extras %v", got)
	}
}

// weightedScore builds a Scorer as a linear combination Σ wⱼ·yⱼ. Use
// negative weights for indicators to minimize (response times) and
// positive for those to maximize (throughput).
func weightedScore(weights []float64) Scorer {
	return func(ind []float64) float64 {
		var s float64
		for j, w := range weights {
			if j < len(ind) {
				s += w * ind[j]
			}
		}
		return s
	}
}
