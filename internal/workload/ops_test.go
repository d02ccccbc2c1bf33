package workload

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nnwc/internal/stats"
)

func TestFilter(t *testing.T) {
	ds := sampleDataset(10)
	out := ds.Filter(func(s Sample) bool { return s.X[0] >= 5 })
	if out.Len() != 5 {
		t.Fatalf("filtered to %d samples", out.Len())
	}
	for _, s := range out.Samples {
		if s.X[0] < 5 {
			t.Fatal("filter kept an excluded sample")
		}
	}
	if out.NumFeatures() != ds.NumFeatures() {
		t.Fatal("schema lost")
	}
}

func TestMerge(t *testing.T) {
	a := sampleDataset(3)
	b := sampleDataset(4)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 7 {
		t.Fatalf("merged to %d samples", m.Len())
	}
	// Originals untouched.
	if a.Len() != 3 || b.Len() != 4 {
		t.Fatal("merge mutated inputs")
	}
}

func TestMergeSchemaMismatch(t *testing.T) {
	a := sampleDataset(2)
	b := NewDataset([]string{"a", "zzz"}, a.TargetNames)
	b.MustAppend(Sample{X: []float64{1, 2}, Y: []float64{1, 2, 3}})
	if _, err := Merge(a, b); err == nil {
		t.Fatal("mismatched feature names accepted")
	}
	c := NewDataset([]string{"a"}, []string{"y1"})
	c.MustAppend(Sample{X: []float64{1}, Y: []float64{1}})
	if _, err := Merge(a, c); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	d := NewDataset(a.FeatureNames, []string{"y1", "nope", "y3"})
	d.MustAppend(Sample{X: []float64{1, 2}, Y: []float64{1, 2, 3}})
	if _, err := Merge(a, d); err == nil {
		t.Fatal("mismatched target names accepted")
	}
}

func TestSelectTargets(t *testing.T) {
	ds := sampleDataset(4)
	out, err := ds.SelectTargets("y3", "y1")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumTargets() != 2 {
		t.Fatalf("%d targets", out.NumTargets())
	}
	if out.TargetNames[0] != "y3" || out.TargetNames[1] != "y1" {
		t.Fatalf("target order %v", out.TargetNames)
	}
	// Sample 2: y = (20, 40, 60) originally.
	if out.Samples[2].Y[0] != 60 || out.Samples[2].Y[1] != 20 {
		t.Fatalf("reordered values wrong: %v", out.Samples[2].Y)
	}
	if _, err := ds.SelectTargets("nope"); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := ds.SelectTargets(); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestIndexLookups(t *testing.T) {
	ds := sampleDataset(1)
	j, err := ds.FeatureIndex("b")
	if err != nil || j != 1 {
		t.Fatalf("FeatureIndex: %d %v", j, err)
	}
	k, err := ds.TargetIndex("y2")
	if err != nil || k != 1 {
		t.Fatalf("TargetIndex: %d %v", k, err)
	}
	if _, err := ds.FeatureIndex("zz"); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if _, err := ds.TargetIndex("zz"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// The dataset operations below are exercised only by these tests.

// Filter returns a new dataset containing the samples for which keep
// returns true. Samples are shared, not copied.
func (d *Dataset) Filter(keep func(Sample) bool) *Dataset {
	out := NewDataset(d.FeatureNames, d.TargetNames)
	for _, s := range d.Samples {
		if keep(s) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// Merge appends other's samples to a copy of d. The schemas (names, in
// order) must match exactly.
func Merge(d, other *Dataset) (*Dataset, error) {
	if d.NumFeatures() != other.NumFeatures() || d.NumTargets() != other.NumTargets() {
		return nil, errors.New("workload: merge schema dimension mismatch")
	}
	for i := range d.FeatureNames {
		if d.FeatureNames[i] != other.FeatureNames[i] {
			return nil, fmt.Errorf("workload: feature %d named %q vs %q", i, d.FeatureNames[i], other.FeatureNames[i])
		}
	}
	for i := range d.TargetNames {
		if d.TargetNames[i] != other.TargetNames[i] {
			return nil, fmt.Errorf("workload: target %d named %q vs %q", i, d.TargetNames[i], other.TargetNames[i])
		}
	}
	out := NewDataset(d.FeatureNames, d.TargetNames)
	out.Samples = append(out.Samples, d.Samples...)
	out.Samples = append(out.Samples, other.Samples...)
	return out, nil
}

// SelectTargets returns a dataset restricted to the named targets, in the
// given order. Feature columns are shared; target rows are copied.
func (d *Dataset) SelectTargets(names ...string) (*Dataset, error) {
	if len(names) == 0 {
		return nil, errors.New("workload: no targets selected")
	}
	idx := make([]int, len(names))
	for k, name := range names {
		found := -1
		for j, t := range d.TargetNames {
			if t == name {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("workload: unknown target %q", name)
		}
		idx[k] = found
	}
	out := NewDataset(d.FeatureNames, names)
	for _, s := range d.Samples {
		y := make([]float64, len(idx))
		for k, j := range idx {
			y[k] = s.Y[j]
		}
		out.Samples = append(out.Samples, Sample{X: s.X, Y: y})
	}
	return out, nil
}

// FeatureIndex returns the column index of the named feature, or an error.
func (d *Dataset) FeatureIndex(name string) (int, error) {
	for j, f := range d.FeatureNames {
		if f == name {
			return j, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown feature %q", name)
}

// TargetIndex returns the column index of the named target, or an error.
func (d *Dataset) TargetIndex(name string) (int, error) {
	for j, t := range d.TargetNames {
		if t == name {
			return j, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown target %q", name)
}

// columnSummary is the part of a column's statistics these tests read.
type columnSummary struct{ Mean, Max float64 }

// TargetSummaries describes each target column.
func (d *Dataset) TargetSummaries() []columnSummary {
	out := make([]columnSummary, d.NumTargets())
	for j := range out {
		c := d.TargetColumn(j)
		out[j] = columnSummary{Mean: stats.Mean(c), Max: slices.Max(c)}
	}
	return out
}

// FeatureSummaries describes each feature column.
func (d *Dataset) FeatureSummaries() []columnSummary {
	out := make([]columnSummary, d.NumFeatures())
	for j := range out {
		c := d.FeatureColumn(j)
		out[j] = columnSummary{Mean: stats.Mean(c), Max: slices.Max(c)}
	}
	return out
}
