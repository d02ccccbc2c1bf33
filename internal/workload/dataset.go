// Package workload defines the sample and dataset types the paper's
// methodology operates on: tuples (X, Y) pairing a workload configuration
// X = (x1..xn) with the performance indicators Y = (y1..ym) measured when
// the application ran under that configuration (§2.2).
//
// The package also provides deterministic shuffling, splitting, and CSV
// serialization so sample collections can be moved between the simulator,
// the trainers, and the experiment harness.
package workload

import (
	"errors"
	"fmt"

	"nnwc/internal/rng"
)

// Sample is one observation: a configuration vector and the performance
// indicator vector measured under it.
type Sample struct {
	X []float64 // configuration parameters
	Y []float64 // performance indicators
}

// Dataset is an ordered collection of samples with named features and
// targets. All samples must agree with the declared dimensionality.
type Dataset struct {
	FeatureNames []string
	TargetNames  []string
	Samples      []Sample
}

// NewDataset returns an empty dataset with the given schema.
func NewDataset(featureNames, targetNames []string) *Dataset {
	return &Dataset{
		FeatureNames: append([]string(nil), featureNames...),
		TargetNames:  append([]string(nil), targetNames...),
	}
}

// NumFeatures returns the configuration-parameter dimensionality n.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// NumTargets returns the performance-indicator dimensionality m.
func (d *Dataset) NumTargets() int { return len(d.TargetNames) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Append adds a sample after validating its shape.
func (d *Dataset) Append(s Sample) error {
	if len(s.X) != d.NumFeatures() {
		return fmt.Errorf("workload: sample has %d features, dataset expects %d", len(s.X), d.NumFeatures())
	}
	if len(s.Y) != d.NumTargets() {
		return fmt.Errorf("workload: sample has %d targets, dataset expects %d", len(s.Y), d.NumTargets())
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// MustAppend adds a sample and panics on a shape mismatch. Intended for
// construction sites where the shape is statically known.
func (d *Dataset) MustAppend(s Sample) {
	if err := d.Append(s); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the dataset. The copied rows share two
// backing arrays, one for X and one for Y, each row capped at its length,
// so an append to one row copies it instead of overwriting the next.
func (d *Dataset) Clone() *Dataset {
	c := NewDataset(d.FeatureNames, d.TargetNames)
	c.Samples = make([]Sample, len(d.Samples))
	nx, ny := 0, 0
	for _, s := range d.Samples {
		nx, ny = nx+len(s.X), ny+len(s.Y)
	}
	xs, ys := make([]float64, 0, nx), make([]float64, 0, ny)
	for i, s := range d.Samples {
		x, y := len(xs), len(ys)
		xs, ys = append(xs, s.X...), append(ys, s.Y...)
		c.Samples[i] = Sample{X: xs[x:len(xs):len(xs)], Y: ys[y:len(ys):len(ys)]}
	}
	return c
}

// Xs returns the feature rows (views, not copies).
func (d *Dataset) Xs() [][]float64 {
	out := make([][]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.X
	}
	return out
}

// Ys returns the target rows (views, not copies).
func (d *Dataset) Ys() [][]float64 {
	out := make([][]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.Y
	}
	return out
}

// FeatureColumn returns a copy of feature column j.
func (d *Dataset) FeatureColumn(j int) []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.X[j]
	}
	return out
}

// TargetColumn returns a copy of target column j.
func (d *Dataset) TargetColumn(j int) []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.Y[j]
	}
	return out
}

// Shuffle permutes the samples in place using the given source.
func (d *Dataset) Shuffle(src *rng.Source) {
	src.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// Subset returns a new dataset containing the samples at the given indices
// (sharing the underlying sample slices).
func (d *Dataset) Subset(indices []int) *Dataset {
	c := NewDataset(d.FeatureNames, d.TargetNames)
	c.Samples = make([]Sample, len(indices))
	for i, idx := range indices {
		c.Samples[i] = d.Samples[idx]
	}
	return c
}

// Split partitions the dataset into a head of the given fraction and the
// remaining tail, without shuffling. frac is clamped to [0, 1].
func (d *Dataset) Split(frac float64) (head, tail *Dataset) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(d.Samples)) * frac)
	head = NewDataset(d.FeatureNames, d.TargetNames)
	head.Samples = d.Samples[:n]
	tail = NewDataset(d.FeatureNames, d.TargetNames)
	tail.Samples = d.Samples[n:]
	return head, tail
}

// KFold partitions sample indices into k folds of near-equal size. The
// caller typically shuffles first. It returns an error when k is out of
// range for the dataset size.
func (d *Dataset) KFold(k int) ([][]int, error) {
	if k < 2 {
		return nil, errors.New("workload: k-fold requires k >= 2")
	}
	if k > len(d.Samples) {
		return nil, fmt.Errorf("workload: k=%d exceeds %d samples", k, len(d.Samples))
	}
	folds := make([][]int, k)
	for f := range folds {
		folds[f] = make([]int, 0, (len(d.Samples)-f+k-1)/k)
	}
	for i := range d.Samples {
		folds[i%k] = append(folds[i%k], i)
	}
	return folds, nil
}

// TrainValidation returns, for fold f of the given partition, the training
// set (all folds but f) and the validation set (fold f), as the paper's
// k-fold protocol prescribes (§3.3).
func (d *Dataset) TrainValidation(folds [][]int, f int) (train, val *Dataset) {
	trainIdx := make([]int, 0, len(d.Samples)-len(folds[f]))
	for i, fold := range folds {
		if i == f {
			continue
		}
		trainIdx = append(trainIdx, fold...)
	}
	return d.Subset(trainIdx), d.Subset(folds[f])
}

// Validate checks internal consistency: every sample matches the schema.
func (d *Dataset) Validate() error {
	for i, s := range d.Samples {
		if len(s.X) != d.NumFeatures() || len(s.Y) != d.NumTargets() {
			return fmt.Errorf("workload: sample %d has shape (%d,%d), want (%d,%d)",
				i, len(s.X), len(s.Y), d.NumFeatures(), d.NumTargets())
		}
	}
	return nil
}
