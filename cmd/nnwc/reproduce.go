package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nnwc/internal/experiments"
	"nnwc/internal/obs"
	"nnwc/internal/sched"
)

// cmdReproduce regenerates the paper's tables and figures against the
// simulated three-tier workload. Reports print to stdout; CSV artifacts
// land in -out. Independent runs (CV folds, ensemble members, sweep cells,
// surface rows) execute on the deterministic pool, so the outputs are
// bit-identical at every -workers setting.
func cmdReproduce(args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	run := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	out := fs.String("out", "results", "directory for CSV artifacts")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "master seed for data collection and training")
	quick := fs.Bool("quick", false, "scaled-down settings (for smoke runs)")
	workers := workersFlag(fs)
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-14s %s\n", r.ID, r.Desc)
		}
		return nil
	}
	runners := experiments.All()
	if *run != "all" {
		runners = nil
		for _, id := range strings.Split(*run, ",") {
			r, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			runners = append(runners, r)
		}
	}
	sched.SetWorkers(*workers)
	if err := obsf.start(args); err != nil {
		return err
	}
	obsf.setSeed(*seed)
	obsf.setWorkers(sched.Workers(*workers))

	ctx := experiments.New(os.Stdout, *out)
	if *quick {
		ctx = experiments.NewQuick(os.Stdout, *out)
	}
	ctx.Seed, ctx.Trace = *seed, obsf.trace()
	tr := obsf.trace()
	return obsf.finish(func() error {
		for _, r := range runners {
			start := time.Now()
			fmt.Printf("=== %s: %s ===\n", r.ID, r.Desc)
			if tr.Enabled() {
				tr.Emit("experiment_start", obs.String("id", r.ID))
			}
			if err := r.Run(ctx); err != nil {
				return fmt.Errorf("%s failed: %w", r.ID, err)
			}
			elapsed := time.Since(start)
			if tr.Enabled() {
				tr.Emit("experiment_end", obs.String("id", r.ID), obs.Float("ms", float64(elapsed.Nanoseconds())/1e6))
			}
			obsf.infof("--- %s done in %v ---\n\n", r.ID, elapsed.Round(time.Millisecond))
		}
		return nil
	}())
}
