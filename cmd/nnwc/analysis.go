package main

import (
	"flag"
	"fmt"
	"strings"

	"nnwc/internal/dist/jobs"
)

func cmdImportance(args []string) error {
	fs := flag.NewFlagSet("importance", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	data := fs.String("data", "data.csv", "dataset the importance is computed on")
	repeats := fs.Int("repeats", 5, "permutation repeats")
	seed := fs.Uint64("seed", 7, "permutation seed")
	x := addExperimentFlags(fs)
	fs.Parse(args)
	return x.run(args, func() error {
		x.obsf.setDataset(*data)
		x.obsf.setSeed(*seed)
		job, err := jobs.ImportanceJob(*modelPath, *data, jobs.ImportanceConfig{Repeats: *repeats}, *seed)
		if err != nil {
			return err
		}
		im, err := execute(x, job)
		if err != nil {
			return err
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
	})
}

func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	data := fs.String("data", "data.csv", "sample CSV")
	k := fs.Int("k", 5, "cross-validation folds")
	epochs := fs.Int("epochs", 1000, "training epochs per candidate")
	seed := fs.Uint64("seed", 13, "seed")
	layouts := fs.String("candidates", "4;8;16;32;16,8", "semicolon-separated hidden layouts (each comma-separated)")
	x := addExperimentFlags(fs)
	fs.Parse(args)
	return x.run(args, func() error {
		x.obsf.setDataset(*data)
		x.obsf.setSeed(*seed)
		x.obsf.setConfig("candidates", *layouts)
		var candidates [][]int
		for _, spec := range strings.Split(*layouts, ";") {
			layout, err := jobs.ParseLayout(spec)
			if err != nil {
				return fmt.Errorf("parsing candidate %q: %w", spec, err)
			}
			candidates = append(candidates, layout)
		}
		job, err := jobs.SelectJob(*data, jobs.SelectConfig{K: *k, Epochs: *epochs, Candidates: candidates}, *seed)
		if err != nil {
			return err
		}
		sel, err := execute(x, job)
		if err != nil {
			return err
		}
		x.obsf.metric("best_error", sel.Best.Error)
		fmt.Printf("%-14s %10s %12s\n", "hidden", "params", "CV error")
		for _, cand := range sel.Candidates {
			fmt.Printf("%-14s %10d %11.2f%%\n", fmt.Sprint(cand.Hidden), cand.Params, cand.Error*100)
		}
		fmt.Printf("selected: %v\n", sel.Best.Hidden)
		return nil
	})
}
