// Command nnwc is the workload-characterization toolchain: generate sample
// datasets from the three-tier simulator, train and persist neural-network
// models, cross-validate them, predict unseen configurations, render
// response surfaces, recommend configurations, serve models, and
// reproduce the paper's tables and figures.
//
// Usage:
//
//	nnwc <subcommand> [flags]
//
// `nnwc help` lists the subcommands; `nnwc <subcommand> -h` lists a
// subcommand's flags. With default flags, `nnwc datagen` followed by
// `nnwc crossval` prints the paper's Table 2, as `nnwc reproduce -run
// table2` does.
//
// Long-running subcommands additionally accept -trace DIR (record a JSONL
// event trace and provenance manifest under DIR), -quiet, and -pprof-addr
// ADDR (profiling/metrics endpoints); `nnwc runs` inspects recorded traces.
//
// Subcommands with parallel phases (crossval, compare, surface, select,
// importance, reproduce) accept -workers (default GOMAXPROCS) to bound the
// deterministic scheduler's concurrency; outputs are bit-identical at
// every setting. The experiment subcommands other than reproduce also
// shard across processes and machines: start a coordinator with
// -coordinator ADDR and any number of workers with -worker URL (plus
// -dist-state FILE for resumable runs, -dist-lease N, -dist-lease-ttl DUR,
// -dist-cache DIR). Distribution never changes results — every task's seed
// derives from (seed, index) and reductions replay in index order, so the
// distributed output is byte-identical to a local run's.
package main

import (
	"fmt"
	"os"
)

// subcommands is the one list of nnwc's subcommands: main dispatches
// through it and usage prints it.
var subcommands = []struct {
	name, summary string
	run           func([]string) error
}{
	{"datagen", "run the three-tier simulator over a configuration sweep, emit CSV samples", cmdDatagen},
	{"doegen", "like datagen but with a space-filling experiment design (LHS/random/factorial)", cmdDoegen},
	{"simulate", "deep-dive one configuration: percentiles, CIs, per-pool breakdown", cmdSimulate},
	{"train", "train an MLP model on a sample CSV and save it as JSON", cmdTrain},
	{"crossval", "k-fold cross-validation (the paper's Table 2 protocol)", cmdCrossval},
	{"predict", "predict the performance indicators of one configuration", cmdPredict},
	{"surface", "evaluate a model over a 2-D configuration slice (the paper's 3-D figures)", cmdSurface},
	{"recommend", "search for the best configuration under a scoring function", cmdRecommend},
	{"serve", "HTTP prediction server: a multi-tenant fleet with batched inference, canary deploys, hot reload", cmdServe},
	{"fleet", "operate a running serve instance: list, deploy, promote, rollback", cmdFleet},
	{"compare", "compare the OLS/polynomial/log/RBF/MLP/LNN model families by CV error", cmdCompare},
	{"importance", "permutation feature importance of a trained model on a dataset", cmdImportance},
	{"select", "automated hidden-node-count selection by cross-validation", cmdSelect},
	{"runs", "inspect recorded run traces: list, show, diff, timeline, tail", cmdRuns},
	{"reproduce", "regenerate the paper's tables and figures (-list shows the experiment ids)", cmdReproduce},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	for _, sc := range subcommands {
		if sc.name != name {
			continue
		}
		if err := sc.run(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "nnwc: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "nnwc: unknown subcommand %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "nnwc — neural-network workload characterization (IISWC 2006 reproduction)\n\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(os.Stderr, `
long-running subcommands share three observability flags:
  -trace DIR       record a JSONL event trace + provenance manifest under DIR
  -quiet           suppress progress chatter (results still print)
  -pprof-addr ADDR serve /debug/pprof, /debug/vars and /metrics on ADDR

experiment subcommands (crossval, compare, surface, importance, select)
also distribute across processes/machines, with bit-identical results:
  -coordinator ADDR  serve the experiment's tasks on ADDR and reduce results
  -worker URL        pull and execute tasks from the coordinator at URL
  -dist-state FILE   journal completed tasks; restarting resumes, not recomputes

run 'nnwc <subcommand> -h' for flags.`)
}
