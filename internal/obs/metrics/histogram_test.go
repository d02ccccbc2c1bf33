package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramObserveAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "latency", []float64{1, 10, 100})
	h.Observe(0.5) // ≤1
	h.Observe(1)   // ≤1 (inclusive upper edge)
	h.Observe(5)   // ≤10
	h.Observe(500) // +Inf
	var b strings.Builder
	r.Write(&b)
	want := `# HELP lat_ms latency
# TYPE lat_ms histogram
lat_ms_bucket{le="1"} 2
lat_ms_bucket{le="10"} 3
lat_ms_bucket{le="100"} 3
lat_ms_bucket{le="+Inf"} 4
lat_ms_sum 506.5
lat_ms_count 4
`
	if b.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", b.String(), want)
	}
}

// A served prediction takes ~0.1 ms: the latency layouts must tell a fast
// request from a slow one below a millisecond, in both units.
func TestLatencyBucketsResolveSubMillisecond(t *testing.T) {
	for unit, c := range map[string]struct {
		bounds []float64
		ms     float64
	}{"ms": {MillisBuckets, 1}, "s": {SecondsBuckets, 1e-3}} {
		h := NewHistogram("lat", "", c.bounds)
		h.Observe(0.1 * c.ms)
		h.Observe(0.9 * c.ms)
		for i, n := range h.Snapshot().Counts {
			if n > 1 {
				t.Errorf("%s: 0.1 ms and 0.9 ms share bucket %d of %v", unit, i, c.bounds)
			}
		}
	}
}

// SecondsBuckets is derived from MillisBuckets; each bound must render as
// the millisecond bound's decimal shifted by three places, so le labels
// stay clean and every process of a build derives the same layout.
func TestSecondsBucketsAreMillisBuckets(t *testing.T) {
	if len(SecondsBuckets) != len(MillisBuckets) {
		t.Fatalf("%d seconds bounds for %d millisecond bounds", len(SecondsBuckets), len(MillisBuckets))
	}
	for i, ms := range MillisBuckets {
		want, err := strconv.ParseFloat(strconv.FormatFloat(ms, 'g', -1, 64)+"e-3", 64)
		if err != nil {
			t.Fatal(err)
		}
		got, wantS := strconv.FormatFloat(SecondsBuckets[i], 'g', -1, 64), strconv.FormatFloat(want, 'g', -1, 64)
		if got != wantS {
			t.Errorf("bound %d: %s s, want %s s (%g ms)", i, got, wantS, ms)
		}
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram("x", "", []float64{1})
	h.Observe(nan())
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("NaN observation recorded: %+v", s)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestHistogramVecSetSnapshotIsIdempotent(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("task_ms", "tasks", []float64{1, 10}, "worker")
	src := NewHistogram("w", "", []float64{1, 10})
	src.Observe(5)
	src.Observe(5)

	// Pushing the same cumulative snapshot twice must not double-count.
	for i := 0; i < 2; i++ {
		if err := v.SetSnapshot(src.Snapshot(), "w1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.CellSnapshot("w1"); got.Count != 2 {
		t.Fatalf("cell count after re-push = %d, want 2", got.Count)
	}

	// Bounds mismatch is an error, not a corrupt cell.
	bad := NewHistogram("bad", "", []float64{3})
	bad.Observe(1)
	if err := v.SetSnapshot(bad.Snapshot(), "w1"); err == nil {
		t.Fatal("SetSnapshot with different bounds succeeded")
	}
}

func TestHistogramVecMergedAcrossCells(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("task_ms", "tasks", []float64{1, 10}, "worker")
	v.Observe(0.5, "w1")
	v.Observe(5, "w2")
	v.Observe(50, "w2")
	m := v.Merged()
	if m.Count != 3 {
		t.Fatalf("merged count = %d, want 3", m.Count)
	}
	if m.Sum != 55.5 {
		t.Fatalf("merged sum = %g, want 55.5", m.Sum)
	}
	wantCounts := []uint64{1, 1, 1}
	for i, n := range wantCounts {
		if m.Counts[i] != n {
			t.Fatalf("merged counts = %v, want %v", m.Counts, wantCounts)
		}
	}
}

func TestHistogramVecRenderSortedByLabel(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("h", "", []float64{1}, "worker")
	v.Observe(0.5, "b")
	v.Observe(2, "a")
	var sb strings.Builder
	r.Write(&sb)
	out := sb.String()
	ia, ib := strings.Index(out, `worker="a"`), strings.Index(out, `worker="b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("cells not rendered in sorted label order:\n%s", out)
	}
}

func TestHistogramFuncRendersMergedView(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("per_worker", "", []float64{1, 10}, "worker")
	r.HistogramFunc("cluster", "merged view", func() HistogramSnapshot { return v.Merged() })
	v.Observe(5, "w1")
	v.Observe(0.5, "w2")
	var sb strings.Builder
	r.Write(&sb)
	out := sb.String()
	for _, want := range []string{
		`cluster_bucket{le="1"} 1`,
		`cluster_bucket{le="10"} 2`,
		`cluster_bucket{le="+Inf"} 2`,
		"cluster_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a := NewHistogram("a", "", []float64{1, 10})
	a.Observe(0.5)
	a.Observe(5)
	b := NewHistogram("b", "", []float64{1, 10})
	b.Observe(5)
	b.Observe(50)

	var merged HistogramSnapshot // zero value adopts the first layout
	if err := mergeSnapshot(&merged, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := mergeSnapshot(&merged, b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if merged.Count != 4 {
		t.Fatalf("merged count = %d, want 4", merged.Count)
	}
	wantCounts := []uint64{1, 2, 1}
	for i, n := range wantCounts {
		if merged.Counts[i] != n {
			t.Fatalf("merged counts = %v, want %v", merged.Counts, wantCounts)
		}
	}
	if merged.Sum != 60.5 {
		t.Fatalf("merged sum = %g, want 60.5", merged.Sum)
	}

	// Mismatched layouts must refuse to merge rather than mis-bucket.
	c := NewHistogram("c", "", []float64{2, 20})
	c.Observe(1)
	if err := mergeSnapshot(&merged, c.Snapshot()); err == nil {
		t.Fatal("merge with different bounds succeeded")
	}
}

// mergeSnapshot adds another snapshot's counts into s. The receiver adopts o's
// bucket layout when empty; otherwise the layouts must match exactly —
// per-bucket counts only add between identical buckets.
func mergeSnapshot(s *HistogramSnapshot, o HistogramSnapshot) error {
	if !o.valid() {
		if len(o.Bounds) == 0 && len(o.Counts) == 0 && o.Count == 0 {
			return nil // merging an empty zero snapshot is a no-op
		}
		return fmt.Errorf("metrics: malformed histogram snapshot (%d bounds, %d counts)", len(o.Bounds), len(o.Counts))
	}
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Counts = make([]uint64, len(o.Counts))
	}
	if !sameBounds(s.Bounds, o.Bounds) {
		return fmt.Errorf("metrics: cannot merge histograms with different bucket bounds")
	}
	for i, n := range o.Counts {
		s.Counts[i] += n
	}
	s.Sum += o.Sum
	s.Count += o.Count
	return nil
}
