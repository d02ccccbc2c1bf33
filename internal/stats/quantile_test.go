package stats

import (
	"math"
	"testing"
	"testing/quick"

	"nnwc/internal/rng"
)

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatal("median wrong")
	}
	// R-7 interpolation: p=0.25 on 5 points → h=1 → exactly the 2nd.
	if Quantile(xs, 0.25) != 2 {
		t.Fatal("quartile wrong")
	}
	// Interpolated value.
	if got := Quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Fatalf("interpolation wrong: %v", got)
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Fatal("singleton wrong")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 {
		t.Fatal("Quantile sorted its input")
	}
}

func TestQuantileMonotoneInP(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Norm()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Quantile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSummarizePercentilesOrdering(t *testing.T) {
	src := rng.New(4)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.Exp(1)
	}
	p := SummarizePercentiles(xs)
	if !(p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99) {
		t.Fatalf("percentiles out of order: %+v", p)
	}
}

func TestBatchMeansCICoversTrueMean(t *testing.T) {
	// i.i.d. normal data with known mean: the 95% CI should contain the
	// truth in the vast majority of replications.
	hits := 0
	const reps = 200
	for r := 0; r < reps; r++ {
		src := rng.New(uint64(r) + 1)
		series := make([]float64, 400)
		for i := range series {
			series[i] = (10 + 2*src.Norm())
		}
		ci, err := BatchMeansCI(series, 20)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(10) {
			hits++
		}
	}
	if hits < reps*88/100 {
		t.Fatalf("CI covered the true mean only %d/%d times", hits, reps)
	}
}

func TestBatchMeansCIShrinkWithData(t *testing.T) {
	src := rng.New(9)
	longSeries := make([]float64, 8000)
	for i := range longSeries {
		longSeries[i] = src.Exp(0.5)
	}
	small, err := BatchMeansCI(longSeries[:400], 20)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BatchMeansCI(longSeries, 20)
	if err != nil {
		t.Fatal(err)
	}
	if big.HalfWidth >= small.HalfWidth {
		t.Fatalf("CI did not shrink with more data: %v vs %v", big.HalfWidth, small.HalfWidth)
	}
}

func TestBatchMeansCIErrors(t *testing.T) {
	if _, err := BatchMeansCI([]float64{1, 2, 3}, 1); err == nil {
		t.Fatal("1 batch accepted")
	}
	if _, err := BatchMeansCI([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("too-short series accepted")
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev {
			t.Fatalf("t-critical not non-increasing at df=%d", df)
		}
		prev = v
	}
	if math.Abs(tCritical95(1000)-1.96) > 1e-9 {
		t.Fatal("asymptote wrong")
	}
	if !math.IsInf(tCritical95(0), 1) {
		t.Fatal("df=0 should be infinite")
	}
}
