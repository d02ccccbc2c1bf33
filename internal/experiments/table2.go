package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// pct renders a fractional error for the fixed-width table, or "n/a" when
// the metric is undefined (NaN) for that indicator — the skip must be
// visible instead of silently counting as 0% error.
func pct(e float64) string {
	if math.IsNaN(e) {
		return fmt.Sprintf("%12s", "n/a")
	}
	return fmt.Sprintf("%11.1f%%", e*100)
}

// csvCell renders a fractional error for CSV artifacts ("NaN" when
// undefined, which R/pandas parse natively).
func csvCell(e float64) string {
	if math.IsNaN(e) {
		return "NaN"
	}
	return fmt.Sprintf("%.4f", e)
}

// RunTable1 documents the simulated environment standing in for the
// paper's Table 1 testbed (4 × dual-core 3.4 GHz Xeon with Hyper-Threading,
// 1 MB L2 per core, 16 GB RAM).
func (c *Context) RunTable1() error {
	c.printf("Table 1 — environment (paper testbed → simulated substitute)\n")
	c.printf("  paper: 4 x Intel Xeon dual-core 3.4 GHz, Hyper-Threading, 1MB L2/core, 16 GB\n")
	c.printf("  here : discrete-event model, %d logical cores, thread overhead %.3f/thread,\n",
		c.Sys.Cores, c.Sys.ThreadOverhead)
	c.printf("         pool queue cap %d, DB soft limit %d, warm-up %.0fs, window %.0fs\n",
		c.Sys.QueueCap, c.Sys.DBSoftLimit, c.Sys.WarmupTime, c.Sys.MeasureTime)
	c.printf("  workload: %d configurations per sweep, %d-fold cross-validation\n\n",
		c.Sweep.Size(), c.Folds)
	return nil
}

// RunTable2 reproduces Table 2: the per-trial, per-indicator validation
// errors of the 5-fold cross-validation, with their averages, using the
// paper's harmonic-mean-of-relative-error metric.
func (c *Context) RunTable2() error {
	cv, err := c.CrossValidation()
	if err != nil {
		return err
	}

	short := shortNames(cv.TargetNames)
	c.printf("Table 2 — average prediction error for the validation set (%d-fold CV)\n", c.Folds)
	c.printf("%-8s", "Trial")
	for _, n := range short {
		c.printf(" %12s", n)
	}
	c.printf("\n")
	undefined := map[string]bool{}
	for i, tr := range cv.Trials {
		c.printf("%-8d", i+1)
		for j, e := range tr.Errors {
			c.printf(" %s", pct(e))
			if math.IsNaN(e) {
				undefined[cv.TargetNames[j]] = true
			}
		}
		c.printf("\n")
	}
	c.printf("%-8s", "Average")
	for _, e := range cv.Averages {
		c.printf(" %s", pct(e))
	}
	c.printf("\n")
	if overall := cv.OverallAccuracy(); math.IsNaN(overall) {
		c.printf("Overall average prediction accuracy: n/a — no indicator has a defined error\n\n")
	} else {
		c.printf("Overall average prediction accuracy: %.1f%% (paper reports ~95%%)\n\n", overall*100)
	}
	if len(undefined) > 0 {
		names := make([]string, 0, len(undefined))
		for n := range undefined {
			names = append(names, n)
		}
		sort.Strings(names)
		c.printf("note: HMRE undefined (NaN) for %s; those cells are skipped in the averages\n\n",
			strings.Join(names, ", "))
	}

	return c.writeArtifact("table2.csv", func(f io.Writer) error {
		fmt.Fprintf(f, "trial,%s\n", strings.Join(cv.TargetNames, ","))
		for i, tr := range cv.Trials {
			fmt.Fprintf(f, "%d", i+1)
			for _, e := range tr.Errors {
				fmt.Fprintf(f, ",%s", csvCell(e))
			}
			fmt.Fprintln(f)
		}
		fmt.Fprintf(f, "average")
		for _, e := range cv.Averages {
			fmt.Fprintf(f, ",%s", csvCell(e))
		}
		fmt.Fprintln(f)
		return nil
	})
}

// shortNames abbreviates indicator names for fixed-width tables.
func shortNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		n = strings.ReplaceAll(n, "dealer_", "d.")
		n = strings.ReplaceAll(n, "manufacturing", "mfg")
		if len(n) > 12 {
			n = n[:12]
		}
		out[i] = n
	}
	return out
}
