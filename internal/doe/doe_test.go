package doe

import (
	"math"
	"testing"
	"testing/quick"
)

func inUnitCube(points [][]float64) bool {
	for _, p := range points {
		for _, v := range p {
			if v < 0 || v >= 1 {
				return false
			}
		}
	}
	return true
}

func TestFullFactorialCountAndCoverage(t *testing.T) {
	pts, err := FullFactorial{Levels: 3}.Points(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("%d points, want 9", len(pts))
	}
	if !inUnitCube(pts) {
		t.Fatal("points outside [0,1)")
	}
	// Each dimension should take exactly 3 distinct values.
	for j := 0; j < 2; j++ {
		vals := map[float64]bool{}
		for _, p := range pts {
			vals[p[j]] = true
		}
		if len(vals) != 3 {
			t.Fatalf("dimension %d has %d levels", j, len(vals))
		}
	}
}

func TestFullFactorialErrors(t *testing.T) {
	if _, err := (FullFactorial{Levels: 1}).Points(0, 2); err == nil {
		t.Fatal("1 level accepted")
	}
	if _, err := (FullFactorial{Levels: 2}).Points(0, 0); err == nil {
		t.Fatal("0 dims accepted")
	}
	if _, err := (FullFactorial{Levels: 10}).Points(0, 12); err == nil {
		t.Fatal("10^12 grid accepted")
	}
}

func TestUniformRandom(t *testing.T) {
	pts, err := UniformRandom{Seed: 1}.Points(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 100 || len(pts[0]) != 3 {
		t.Fatal("shape wrong")
	}
	if !inUnitCube(pts) {
		t.Fatal("points outside [0,1)")
	}
	again, err := UniformRandom{Seed: 1}.Points(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pts[50][1] != again[50][1] {
		t.Fatal("not deterministic")
	}
	if _, err := (UniformRandom{}).Points(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		n := 16
		pts, err := LatinHypercube{Seed: seed}.Points(n, 4)
		if err != nil || !inUnitCube(pts) {
			return false
		}
		// Every dimension: each of n bins hit exactly once.
		for j := 0; j < 4; j++ {
			bins := make([]int, n)
			for _, p := range pts {
				bins[int(p[j]*float64(n))]++
			}
			for _, c := range bins {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLatinHypercubeCentered(t *testing.T) {
	pts, err := LatinHypercube{Seed: 3, Centered: true}.Points(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]bool{0.125: true, 0.375: true, 0.625: true, 0.875: true}
	for _, p := range pts {
		if !want[p[0]] {
			t.Fatalf("centered point %v not at a bin centre", p[0])
		}
	}
}

func TestLHSBeatsRandomOnDiscrepancy(t *testing.T) {
	// The reason LHS exists: better uniformity at the same budget. Use a
	// few seeds to avoid a fluke.
	var lhsSum, rndSum float64
	for seed := uint64(0); seed < 5; seed++ {
		lhs, err := LatinHypercube{Seed: seed}.Points(32, 3)
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := UniformRandom{Seed: seed}.Points(32, 3)
		if err != nil {
			t.Fatal(err)
		}
		lhsSum += discrepancy(lhs)
		rndSum += discrepancy(rnd)
	}
	if lhsSum >= rndSum {
		t.Fatalf("LHS discrepancy %v not below random %v", lhsSum/5, rndSum/5)
	}
}

func TestScale(t *testing.T) {
	pts := [][]float64{{0, 0.5}, {0.999999, 0.25}}
	dims := []Dimension{
		{Name: "rate", Lo: 400, Hi: 600},
		{Name: "threads", Lo: 2, Hi: 10, Integer: true},
	}
	out, err := Scale(pts, dims)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 400 || math.Abs(out[1][0]-600) > 0.01 {
		t.Fatalf("continuous scaling wrong: %v", out)
	}
	if out[0][1] != 6 || out[1][1] != 4 {
		t.Fatalf("integer scaling wrong: %v", out)
	}
	for _, row := range out {
		if row[1] != math.Round(row[1]) {
			t.Fatal("integer dim not integral")
		}
	}
}

func TestScaleErrors(t *testing.T) {
	if _, err := Scale([][]float64{{0.5}}, nil); err == nil {
		t.Fatal("no dims accepted")
	}
	if _, err := Scale([][]float64{{0.5, 0.5}}, []Dimension{{Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := Scale([][]float64{{0.5}}, []Dimension{{Lo: 1, Hi: 0}}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestDiscrepancyKnownOrdering(t *testing.T) {
	// A clustered design must have higher discrepancy than a spread one.
	clustered := [][]float64{{0.1, 0.1}, {0.11, 0.1}, {0.1, 0.11}, {0.12, 0.12}}
	spread := [][]float64{{0.125, 0.125}, {0.375, 0.625}, {0.625, 0.375}, {0.875, 0.875}}
	if dc, ds := discrepancy(clustered), discrepancy(spread); dc <= ds {
		t.Fatalf("clustered %v not worse than spread %v", dc, ds)
	}
}

// discrepancy is the centred L2-discrepancy of points in the unit cube
// (Hickernell 1998): the standard figure of merit for how uniformly a
// design covers it, lower being more uniform.
func discrepancy(points [][]float64) float64 {
	d := len(points[0])
	term1 := math.Pow(13.0/12.0, float64(d))
	var sum2 float64
	for _, x := range points {
		prod := 1.0
		for j := 0; j < d; j++ {
			a := math.Abs(x[j] - 0.5)
			prod *= 1 + 0.5*a - 0.5*a*a
		}
		sum2 += prod
	}
	var sum3 float64
	for _, x := range points {
		for _, y := range points {
			prod := 1.0
			for j := 0; j < d; j++ {
				ax := math.Abs(x[j] - 0.5)
				ay := math.Abs(y[j] - 0.5)
				prod *= 1 + 0.5*ax + 0.5*ay - 0.5*math.Abs(x[j]-y[j])
			}
			sum3 += prod
		}
	}
	nf := float64(len(points))
	return math.Sqrt(max(0, term1-2/nf*sum2+1/(nf*nf)*sum3))
}

func TestDesignNames(t *testing.T) {
	for _, d := range []Design{FullFactorial{Levels: 3}, UniformRandom{}, LatinHypercube{}} {
		if d.Name() == "" {
			t.Fatal("empty design name")
		}
	}
}
