package workload

import (
	"testing"
	"testing/quick"

	"nnwc/internal/rng"
)

func sampleDataset(n int) *Dataset {
	ds := NewDataset([]string{"a", "b"}, []string{"y1", "y2", "y3"})
	for i := 0; i < n; i++ {
		ds.MustAppend(Sample{
			X: []float64{float64(i), float64(i * 2)},
			Y: []float64{float64(i * 10), float64(i * 20), float64(i * 30)},
		})
	}
	return ds
}

func TestSchema(t *testing.T) {
	ds := sampleDataset(5)
	if ds.NumFeatures() != 2 || ds.NumTargets() != 3 || ds.Len() != 5 {
		t.Fatalf("schema wrong: %d features, %d targets, %d samples",
			ds.NumFeatures(), ds.NumTargets(), ds.Len())
	}
}

func TestAppendValidatesShape(t *testing.T) {
	ds := sampleDataset(0)
	if err := ds.Append(Sample{X: []float64{1}, Y: []float64{1, 2, 3}}); err == nil {
		t.Fatal("short X accepted")
	}
	if err := ds.Append(Sample{X: []float64{1, 2}, Y: []float64{1}}); err == nil {
		t.Fatal("short Y accepted")
	}
	if err := ds.Append(Sample{X: []float64{1, 2}, Y: []float64{1, 2, 3}}); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend did not panic on bad shape")
		}
	}()
	sampleDataset(0).MustAppend(Sample{X: []float64{1}, Y: nil})
}

func TestCloneIsDeep(t *testing.T) {
	ds := sampleDataset(3)
	c := ds.Clone()
	c.Samples[0].X[0] = 999
	if ds.Samples[0].X[0] == 999 {
		t.Fatal("Clone shares sample storage")
	}
}

func TestColumns(t *testing.T) {
	ds := sampleDataset(4)
	fc := ds.FeatureColumn(1)
	if len(fc) != 4 || fc[2] != 4 {
		t.Fatalf("feature column %v", fc)
	}
	tc := ds.TargetColumn(2)
	if tc[3] != 90 {
		t.Fatalf("target column %v", tc)
	}
}

func TestSplit(t *testing.T) {
	ds := sampleDataset(10)
	head, tail := ds.Split(0.7)
	if head.Len() != 7 || tail.Len() != 3 {
		t.Fatalf("split sizes %d/%d", head.Len(), tail.Len())
	}
	// Clamping.
	h2, t2 := ds.Split(1.5)
	if h2.Len() != 10 || t2.Len() != 0 {
		t.Fatal("frac > 1 should clamp")
	}
	h3, _ := ds.Split(-0.2)
	if h3.Len() != 0 {
		t.Fatal("frac < 0 should clamp")
	}
}

func TestKFoldPartition(t *testing.T) {
	ds := sampleDataset(23)
	folds, err := ds.KFold(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		for _, idx := range f {
			if seen[idx] {
				t.Fatalf("index %d appears in two folds", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 23 {
		t.Fatalf("folds cover %d of 23 samples", len(seen))
	}
	// Fold sizes differ by at most 1.
	min, max := len(folds[0]), len(folds[0])
	for _, f := range folds {
		if len(f) < min {
			min = len(f)
		}
		if len(f) > max {
			max = len(f)
		}
	}
	if max-min > 1 {
		t.Fatalf("fold sizes range %d..%d", min, max)
	}
}

func TestKFoldErrors(t *testing.T) {
	ds := sampleDataset(3)
	if _, err := ds.KFold(1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := ds.KFold(4); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestTrainValidationDisjoint(t *testing.T) {
	ds := sampleDataset(20)
	folds, err := ds.KFold(4)
	if err != nil {
		t.Fatal(err)
	}
	for f := range folds {
		train, val := ds.TrainValidation(folds, f)
		if train.Len()+val.Len() != 20 {
			t.Fatalf("fold %d: %d + %d != 20", f, train.Len(), val.Len())
		}
		if val.Len() != len(folds[f]) {
			t.Fatalf("fold %d: validation size %d", f, val.Len())
		}
	}
}

func TestShuffleKeepsSamples(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		ds := sampleDataset(12)
		var sumBefore float64
		for _, s := range ds.Samples {
			sumBefore += s.X[0]
		}
		ds.Shuffle(rng.New(seed))
		var sumAfter float64
		for _, s := range ds.Samples {
			sumAfter += s.X[0]
		}
		return sumBefore == sumAfter && ds.Len() == 12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubset(t *testing.T) {
	ds := sampleDataset(5)
	sub := ds.Subset([]int{4, 0})
	if sub.Len() != 2 || sub.Samples[0].X[0] != 4 || sub.Samples[1].X[0] != 0 {
		t.Fatalf("subset wrong: %+v", sub.Samples)
	}
}

func TestValidate(t *testing.T) {
	ds := sampleDataset(3)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	ds.Samples[1].X = []float64{1}
	if err := ds.Validate(); err == nil {
		t.Fatal("corrupted dataset passed validation")
	}
}
