package main

import (
	"flag"
	"fmt"
	"strings"

	"nnwc/internal/core"
	"nnwc/internal/dist/jobs"
	"nnwc/internal/sched"
	"nnwc/internal/sensitivity"
)

func cmdImportance(args []string) error {
	fs := flag.NewFlagSet("importance", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	data := fs.String("data", "data.csv", "dataset the importance is computed on")
	repeats := fs.Int("repeats", 5, "permutation repeats")
	seed := fs.Uint64("seed", 7, "permutation seed")
	workers := workersFlag(fs)
	df := addDistFlags(fs)
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := df.validate(); err != nil {
		return err
	}
	sched.SetWorkers(*workers)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		if df.isWorker() {
			return df.runWorker(obsf, *workers)
		}
		obsf.setDataset(*data)
		obsf.setSeed(*seed)
		obsf.setWorkers(sched.Workers(*workers))
		var im *sensitivity.Importance
		if df.isCoordinator() {
			ctx, cancel := signalContext()
			defer cancel()
			var err error
			im, _, err = jobs.CoordinateImportance(ctx, df.options(obsf), *modelPath, *data, *repeats, *seed)
			if err != nil {
				return err
			}
		} else {
			model, err := core.LoadModelFile(*modelPath)
			if err != nil {
				return err
			}
			ds, err := loadDataset(*data)
			if err != nil {
				return err
			}
			im, err = sensitivity.PermutationImportance(model, ds, sensitivity.Options{Repeats: *repeats, Seed: *seed, Workers: *workers})
			if err != nil {
				return err
			}
		}
		fmt.Printf("%-20s", "feature")
		for _, n := range im.TargetNames {
			fmt.Printf(" %20s", n)
		}
		fmt.Println()
		for i, fname := range im.FeatureNames {
			fmt.Printf("%-20s", fname)
			for _, v := range im.Scores[i] {
				fmt.Printf(" %20.3f", v)
			}
			fmt.Println()
		}
		fmt.Println("(relative RMSE increase when the feature is shuffled; larger = more influential)")
		return nil
	}())
}

func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	data := fs.String("data", "data.csv", "sample CSV")
	k := fs.Int("k", 5, "cross-validation folds")
	epochs := fs.Int("epochs", 1000, "training epochs per candidate")
	seed := fs.Uint64("seed", 13, "seed")
	layouts := fs.String("candidates", "4;8;16;32;16,8", "semicolon-separated hidden layouts (each comma-separated)")
	workers := workersFlag(fs)
	df := addDistFlags(fs)
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := df.validate(); err != nil {
		return err
	}
	sched.SetWorkers(*workers)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		if df.isWorker() {
			return df.runWorker(obsf, *workers)
		}
		obsf.setDataset(*data)
		obsf.setSeed(*seed)
		obsf.setWorkers(sched.Workers(*workers))
		obsf.setConfig("candidates", *layouts)
		var candidates [][]int
		for _, spec := range strings.Split(*layouts, ";") {
			layout, err := jobs.ParseLayout(spec)
			if err != nil {
				return fmt.Errorf("parsing candidate %q: %w", spec, err)
			}
			candidates = append(candidates, layout)
		}
		var sel *core.SelectionResult
		if df.isCoordinator() {
			ctx, cancel := signalContext()
			defer cancel()
			var err error
			sel, _, err = jobs.CoordinateSelect(ctx, df.options(obsf), *data, candidates, *k, *epochs, *seed)
			if err != nil {
				return err
			}
		} else {
			ds, err := loadDataset(*data)
			if err != nil {
				return err
			}
			base, err := jobs.ModelConfig("16", *epochs, *seed)
			if err != nil {
				return err
			}
			base.Trace = obsf.trace()
			sel, err = core.SelectNodeCount(ds, base, candidates, *k, *seed)
			if err != nil {
				return err
			}
		}
		obsf.metric("best_error", sel.Best.Error)
		fmt.Printf("%-14s %10s %12s\n", "hidden", "params", "CV error")
		for _, cand := range sel.Candidates {
			fmt.Printf("%-14s %10d %11.2f%%\n", fmt.Sprint(cand.Hidden), cand.Params, cand.Error*100)
		}
		fmt.Printf("selected: %v\n", sel.Best.Hidden)
		return nil
	}())
}
