package experiments

import (
	"context"
	"fmt"
	"io"

	"nnwc/internal/core"
	"nnwc/internal/obs"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
)

// RunBaseline quantifies the paper's core motivation (§1, §6): linear
// models from prior work against the non-linear MLP on identical k-fold
// splits. Expect the MLP to win overall, with the gap widest on the
// indicators shaped by valleys and hills.
func (c *Context) RunBaseline() error {
	ds, err := c.Dataset()
	if err != nil {
		return err
	}
	split, err := core.NewCVSplit(ds, c.Folds, c.splitSeed())
	if err != nil {
		return err
	}

	fams := core.CompareFamilies(c.Model)
	// Every (fold, family) cell is an independent fit; fan the grid out.
	// Cell seeds depend only on the fold index, and the per-family
	// accumulation below runs serially in the historical (fold, family)
	// order, so the table is bit-identical at any worker count. Cell spans
	// replay in cell order for the same reason.
	ctx := obs.ContextWithTrace(context.TODO(), c.Trace)
	cells, err := sched.Map(ctx, 0, "baseline-cell", c.Folds*len(fams), func(ctx context.Context, idx int) ([]float64, error) {
		f, fi := idx/len(fams), idx%len(fams)
		trainSet, valSet := split.TrainValidation(f)
		model, err := fams[fi].Fit(trainSet, c.Seed+uint64(f))
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s fold %d: %w", fams[fi].Name, f+1, err)
		}
		ev, err := core.Evaluate(model, valSet)
		if err != nil {
			return nil, err
		}
		if tr := obs.TraceFromContext(ctx); tr.Enabled() {
			tr.Emit("baseline_cell",
				obs.Int("fold", f),
				obs.String("family", fams[fi].Name),
				obs.Float("mean_hmre", stats.MeanSkipNaN(ev.HMRE)),
			)
		}
		return ev.HMRE, nil
	})
	if err != nil {
		return err
	}

	// errs[f][j] accumulates family f's mean error on indicator j.
	errs := make([][]float64, len(fams))
	for i := range errs {
		errs[i] = make([]float64, ds.NumTargets())
	}
	for f := 0; f < c.Folds; f++ {
		for fi := range fams {
			for j, e := range cells[f*len(fams)+fi] {
				errs[fi][j] += e / float64(c.Folds)
			}
		}
	}

	short := shortNames(ds.TargetNames)
	c.printf("Baseline comparison — %d-fold CV harmonic-mean relative error (lower is better)\n", c.Folds)
	c.printf("%-16s", "model")
	for _, n := range short {
		c.printf(" %12s", n)
	}
	c.printf(" %12s\n", "mean")
	for fi, fam := range fams {
		c.printf("%-16s", fam.Name)
		for _, e := range errs[fi] {
			c.printf(" %11.1f%%", e*100)
		}
		c.printf(" %11.1f%%\n", stats.Mean(errs[fi])*100)
	}
	var mlpMean, linMean float64
	for fi, fam := range fams {
		switch fam.Name {
		case "MLP (paper)":
			mlpMean = stats.Mean(errs[fi])
		case "linear (OLS)":
			linMean = stats.Mean(errs[fi])
		}
	}
	if mlpMean > 0 {
		c.printf("linear/MLP error ratio: %.1fx (the paper's motivation: linear models miss the non-linear structure)\n\n", linMean/mlpMean)
	}

	return c.writeArtifact("baseline.csv", func(f io.Writer) error {
		fmt.Fprintf(f, "model")
		for _, n := range ds.TargetNames {
			fmt.Fprintf(f, ",%s", n)
		}
		fmt.Fprintln(f, ",mean")
		for fi, fam := range fams {
			fmt.Fprintf(f, "%q", fam.Name)
			for _, e := range errs[fi] {
				fmt.Fprintf(f, ",%.4f", e)
			}
			fmt.Fprintf(f, ",%.4f\n", stats.Mean(errs[fi]))
		}
		return nil
	})
}
