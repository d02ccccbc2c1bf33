package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at draw %d: %d vs %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	// The xoshiro state must not be all zero; a few draws should not all
	// be identical.
	v0 := r.Uint64()
	allSame := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != v0 {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("seed 0 produced a constant stream")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %.4f, want ~0.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-5, 11)
		if v < -5 || v >= 11 {
			t.Fatalf("Uniform(-5,11) returned %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d of 7 values in 10000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := New(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

// TestNormSincosMatchesSinCos pins Norm's single math.Sincos call to the
// Box–Muller that called math.Sin and math.Cos separately: every dataset
// the simulator collects depends on these bits. 2·10⁶ draws over four
// seeds; DESIGN.md §7 gives the argument for why they agree.
func TestNormSincosMatchesSinCos(t *testing.T) {
	const pairs = 250_000
	for _, seed := range []uint64{1, 2, 2006, 0x9e3779b97f4a7c15} {
		r, ref := New(seed), New(seed)
		for i := 0; i < pairs; i++ {
			var u float64
			for u == 0 {
				u = ref.Float64()
			}
			v := ref.Float64()
			mag := math.Sqrt(-2 * math.Log(u))
			want := [2]float64{mag * math.Cos(2*math.Pi*v), mag * math.Sin(2*math.Pi*v)}
			for k, w := range want {
				if got := r.Norm(); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("seed %d, draw %d: Norm() = %v, Sin/Cos Box–Muller gives %v (v = %v)", seed, 2*i+k, got, w, v)
				}
			}
		}
	}
}

func TestNormMeanStd(t *testing.T) {
	r := New(10)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += normMeanStd(r, 42, 3)
	}
	if mean := sum / n; math.Abs(mean-42) > 0.1 {
		t.Fatalf("NormMeanStd mean %.3f, want ~42", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(4)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.005 {
		t.Fatalf("Exp(4) mean %.4f, want ~0.25", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestLogNormalMean(t *testing.T) {
	r := New(15)
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
	mu, sigma := 0.5, 0.4
	want := math.Exp(mu + sigma*sigma/2)
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(mu, sigma)
	}
	if mean := sum / n; math.Abs(mean-want)/want > 0.01 {
		t.Fatalf("LogNormal mean %.4f, want ~%.4f", mean, want)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	child := parent.Split()
	// Parent and child streams should not be identical.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child matched on %d of 100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(33).Split()
	c2 := New(33).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(5)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: sum %d", sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1)
	}
}

// normMeanStd returns a normal variate with the given mean and standard
// deviation.
func normMeanStd(r *Source, mean, std float64) float64 {
	return mean + std*r.Norm()
}
