package threetier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"nnwc/internal/sched"
	"nnwc/internal/workload"
)

func tinySweep() SweepSpec {
	return SweepSpec{
		InjectionRates: []float64{300, 400},
		MfgThreads:     []int{8},
		WebThreads:     []int{12, 16},
		DefaultThreads: []int{4, 8},
		Replicates:     1,
	}
}

func TestSweepSizeAndConfigs(t *testing.T) {
	spec := tinySweep()
	if spec.Size() != 8 {
		t.Fatalf("size %d", spec.Size())
	}
	cfgs := spec.Configs()
	if len(cfgs) != 8 {
		t.Fatalf("%d configs", len(cfgs))
	}
	// Deterministic order: two calls agree.
	again := spec.Configs()
	for i := range cfgs {
		if cfgs[i] != again[i] {
			t.Fatal("Configs order not deterministic")
		}
	}
	seen := map[Config]bool{}
	for _, c := range cfgs {
		if seen[c] {
			t.Fatalf("duplicate config %+v", c)
		}
		seen[c] = true
	}
}

func TestCollectSchemaAndDeterminism(t *testing.T) {
	sys := testParams()
	sys.MeasureTime = 8
	ds, err := Collect(tinySweep(), sys, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 8 {
		t.Fatalf("%d samples", ds.Len())
	}
	if ds.NumFeatures() != 4 || ds.NumTargets() != 5 {
		t.Fatal("schema wrong")
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic end to end.
	again, err := Collect(tinySweep(), sys, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Samples {
		for j := range ds.Samples[i].Y {
			if ds.Samples[i].Y[j] != again.Samples[i].Y[j] {
				t.Fatal("Collect not deterministic")
			}
		}
	}
	// Different seed differs.
	other, err := Collect(tinySweep(), sys, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ds.Samples {
		for j := range ds.Samples[i].Y {
			if ds.Samples[i].Y[j] != other.Samples[i].Y[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical datasets")
	}
}

func TestCollectReplicatesReduceNoise(t *testing.T) {
	// This is a statistical smoke test: averaged replicates should not
	// produce wildly different values than a single run, and the sample
	// count stays the same (replicates average, not append).
	sys := testParams()
	sys.MeasureTime = 6
	spec := tinySweep()
	spec.Replicates = 3
	ds, err := Collect(spec, sys, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != spec.Size() {
		t.Fatalf("replicates changed sample count: %d", ds.Len())
	}
	for _, s := range ds.Samples {
		for j, v := range s.Y {
			if v < 0 && j < 4 {
				t.Fatalf("negative response time %v", v)
			}
		}
	}
}

func TestCollectRejectsBadConfig(t *testing.T) {
	spec := tinySweep()
	spec.MfgThreads = []int{0}
	if _, err := Collect(spec, testParams(), 1); err == nil {
		t.Fatal("invalid sweep accepted")
	}
	// With several bad configs, the lowest-indexed one is reported at
	// any worker count.
	ok := Config{InjectionRate: 300, MfgThreads: 8, WebThreads: 12, DefaultThreads: 4}
	bad1, bad3 := ok, ok
	bad1.WebThreads = 0
	bad3.InjectionRate = 0
	defer sched.SetWorkers(0)
	for _, w := range []int{1, 2, 8} {
		sched.SetWorkers(w)
		_, err := CollectConfigs([]Config{ok, bad1, ok, bad3}, 1, testParams(), 1)
		if err == nil || !strings.Contains(err.Error(), "every thread pool") {
			t.Fatalf("workers=%d: got %v, want the error of config 1", w, err)
		}
	}
}

func TestDefaultSweepSane(t *testing.T) {
	spec := DefaultSweep()
	if spec.Size() < 100 {
		t.Fatalf("default sweep suspiciously small: %d", spec.Size())
	}
	for _, c := range spec.Configs() {
		if err := c.Validate(); err != nil {
			t.Fatalf("default sweep contains invalid config: %v", err)
		}
	}
}

// datasetDigest hashes a dataset bit for bit: SHA-256 over the
// little-endian math.Float64bits of each sample's X then Y, in sample order.
func datasetDigest(ds *workload.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range ds.Samples {
		for _, row := range [][]float64{s.X, s.Y} {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// archDigest picks the digest pinned for this architecture. amd64
// computes math.Exp and math.Log in assembly and 386 in pure Go, which
// round differently; other architectures, which may also fuse
// multiply-adds, skip.
func archDigest(t *testing.T, amd64, i386 string) string {
	switch runtime.GOARCH {
	case "amd64":
		return amd64
	case "386":
		return i386
	}
	t.Skipf("digests pinned on amd64 and 386; %s may compute math.Exp and math.Log, and fuse multiply-adds, with other rounding", runtime.GOARCH)
	return ""
}

// TestCollectMatchesParentDigest pins the collected dataset to the bits the
// serial container/heap simulator produced, at several worker counts. The
// default QueueCap rejects at saturation; QueueCap 0 censors instead, which
// runs censoredOf's array-order sum over the event heap.
func TestCollectMatchesParentDigest(t *testing.T) {
	spec := SweepSpec{
		InjectionRates: []float64{480, 640},
		MfgThreads:     []int{8, 24},
		WebThreads:     []int{8, 28},
		DefaultThreads: []int{2, 24},
		Replicates:     2,
	}
	cases := []struct {
		name          string
		queueCap      int
		want, want386 string
	}{
		{"reject", DefaultSystemParams().QueueCap, "ca62e743015417777246c7ed7793caa0e7a2a108235638821e108fbc971f6f7c",
			"70485485f80f09233e6bd3c9ec111428d4daff600aebb398f5dd722a28cbc662"},
		{"censor", 0, "735fe9de52e157c471fd331175b3f4c09d819894f3f571f2787bfa1e70c621e1",
			"a429be65dfcc521ab548fc449e42c6afe24e523bf3e346fb7c580e14ff82be84"},
	}
	defer sched.SetWorkers(0)
	for _, tc := range cases {
		sys := DefaultSystemParams()
		sys.WarmupTime, sys.MeasureTime = 1, 2
		sys.QueueCap = tc.queueCap
		for _, w := range []int{1, 2, 8} {
			sched.SetWorkers(w)
			ds, err := Collect(spec, sys, 2006)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := datasetDigest(ds), archDigest(t, tc.want, tc.want386); got != want {
				t.Errorf("%s, workers=%d: digest %s, want %s", tc.name, w, got, want)
			}
		}
	}
}

// TestCollectAllocsIndependentOfSimulatedTime extends
// TestRunAllocsIndependentOfSimulatedTime to the fan-out: each worker
// reuses one simulator's slab, heap and queues across configurations, so a
// sweep simulated four times longer may allocate only a few dozen more
// times (storage regrowth), at one worker and at two.
func TestCollectAllocsIndependentOfSimulatedTime(t *testing.T) {
	spec := SweepSpec{
		InjectionRates: []float64{480, 640},
		MfgThreads:     []int{8, 24},
		WebThreads:     []int{8, 28},
		DefaultThreads: []int{2},
		Replicates:     1,
	}
	defer sched.SetWorkers(0)
	for _, w := range []int{1, 2} {
		sched.SetWorkers(w)
		allocs := func(measure float64) float64 {
			sys := DefaultSystemParams()
			sys.WarmupTime, sys.MeasureTime = 1, measure
			return testing.AllocsPerRun(3, func() {
				if _, err := Collect(spec, sys, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(1), allocs(4)
		t.Logf("workers=%d: %.0f allocations at MeasureTime 1, %.0f at 4", w, short, long)
		if long-short > 48 {
			t.Fatalf("workers=%d: Collect allocates %.0f times at MeasureTime 1 but %.0f at 4: collection allocates per event", w, short, long)
		}
	}
}

// BenchmarkCollect times one collection campaign of perfbench's shape: the
// 3×3×6×6 sweep over 1 s warm-up and 2 s measurement windows.
func BenchmarkCollect(b *testing.B) {
	spec := SweepSpec{
		InjectionRates: []float64{480, 560, 640},
		MfgThreads:     []int{8, 16, 24},
		WebThreads:     []int{8, 12, 16, 20, 24, 28},
		DefaultThreads: []int{2, 4, 8, 12, 16, 24},
		Replicates:     1,
	}
	sys := DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = 1, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(spec, sys, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
