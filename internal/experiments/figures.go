package experiments

import (
	"fmt"
	"io"

	"nnwc/internal/nn"
	"nnwc/internal/plot"
	"nnwc/internal/workload"
)

// RunFig2 regenerates Figure 2: the logistic sigmoid family over
// x ∈ [−10, 10] for several slope parameters, showing the approach to a
// hard limiter as |α| grows (§2.1).
func (c *Context) RunFig2() error {
	alphas := []float64{0.5, 1, 2, 5}
	xs := make([]float64, 81)
	for i := range xs {
		xs[i] = -10 + float64(i)*0.25
	}

	err := c.writeArtifact("fig2_sigmoid.csv", func(f io.Writer) error {
		fmt.Fprintf(f, "x")
		for _, a := range alphas {
			fmt.Fprintf(f, ",alpha=%g", a)
		}
		fmt.Fprintln(f)
		for _, x := range xs {
			fmt.Fprintf(f, "%g", x)
			for _, a := range alphas {
				fmt.Fprintf(f, ",%g", nn.Logistic{Alpha: a}.Eval(x))
			}
			fmt.Fprintln(f)
		}
		return nil
	})
	if err != nil {
		return err
	}

	c.printf("Figure 2 — sigmoid 1/(1+exp(-αx)) on [-10,10]\n")
	for _, a := range alphas {
		act := nn.Logistic{Alpha: a}
		c.printf("  α=%-4g f(-10)=%.4f f(-1)=%.4f f(0)=%.4f f(1)=%.4f f(10)=%.4f\n",
			a, act.Eval(-10), act.Eval(-1), act.Eval(0), act.Eval(1), act.Eval(10))
	}
	c.printf("  (series written to fig2_sigmoid.csv; larger α → harder limiter)\n\n")
	return nil
}

// RunFig5 regenerates Figure 5: actual ('o') vs predicted ('x') values for
// the TRAINING set of cross-validation trial 1, one chart per indicator.
// The fit is deliberately loose (§3.3) — the predictions should track but
// not interpolate the training points exactly.
func (c *Context) RunFig5() error {
	return c.runFitFigure("Figure 5", "fig5_training", true)
}

// RunFig6 regenerates Figure 6: actual vs predicted for the VALIDATION set
// of the same trial — the unseen configurations.
func (c *Context) RunFig6() error {
	return c.runFitFigure("Figure 6", "fig6_validation", false)
}

func (c *Context) runFitFigure(title, artifact string, trainingSet bool) error {
	cv, err := c.CrossValidation()
	if err != nil {
		return err
	}
	trial := cv.Trials[0]
	var ds *workload.Dataset
	if trainingSet {
		ds = trial.Train
		c.printf("%s — actual (o) vs predicted (x), training set, trial 1 (%d samples)\n", title, ds.Len())
	} else {
		ds = trial.Val
		c.printf("%s — actual (o) vs predicted (x), validation set, trial 1 (%d samples)\n", title, ds.Len())
	}

	for j, name := range ds.TargetNames {
		actual := ds.TargetColumn(j)
		pred := make([]float64, ds.Len())
		for i, s := range ds.Samples {
			pred[i] = trial.Model.Predict(s.X)[j]
		}
		sc := plot.Scatter{
			Title:  fmt.Sprintf("%s — %s", title, name),
			YLabel: name,
			Actual: actual,
			Pred:   pred,
			Height: 12,
		}
		if err := sc.Render(c.Out); err != nil {
			return err
		}
		err := c.writeArtifact(fmt.Sprintf("%s_%s.csv", artifact, name), func(f io.Writer) error {
			return plot.WriteSeriesCSV(f, actual, pred)
		})
		if err != nil {
			return err
		}
	}
	c.printf("\n")
	return nil
}
