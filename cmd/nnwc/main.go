// Command nnwc is the workload-characterization toolchain: generate sample
// datasets from the three-tier simulator, train and persist neural-network
// models, cross-validate them, predict unseen configurations, render
// response surfaces, and recommend configurations.
//
// Usage:
//
//	nnwc datagen   -out data.csv [-seed N] [-rates 480,560,640] [-mfg 8,16,24] [-web 8,...] [-default 2,...] [-replicates 1]
//	nnwc train     -data data.csv -model model.json [-hidden 16] [-epochs 2000] [-seed N]
//	nnwc crossval  -data data.csv [-k 5] [-hidden 16] [-seed N] [-workers N]
//	nnwc predict   -model model.json -x 560,8,16,18
//	nnwc surface   -model model.json -output 4 [-fixed 560,0,16,0] [-xi 1] [-yi 3] [-xrange 2:16:8] [-yrange 8:24:9] [-workers N]
//	nnwc recommend -model model.json [-maximize 4] [-bounds 140,80,60,65,inf]
//	nnwc compare   -data data.csv [-k 5] [-workers N]
//	nnwc serve     -model model.json | -models web=a.json,db=b.json [-addr :8080] [-max-batch 64] [-workers N] [-timeout 5s] [-auto-promote]
//	nnwc fleet     list|deploy|promote|rollback [-addr URL] [-model T] [-path P] [-canary]
//	nnwc runs      list|show|diff|timeline|tail [-dir runs] [-addr URL] [id...]
//
// Long-running subcommands additionally accept -trace DIR (record a JSONL
// event trace and provenance manifest under DIR), -quiet, and -pprof-addr
// ADDR (profiling/metrics endpoints); `nnwc runs` inspects recorded traces.
//
// Subcommands with parallel phases (crossval, compare, surface, select,
// importance) accept -workers (default GOMAXPROCS) to bound the
// deterministic scheduler's concurrency; outputs are bit-identical at
// every setting. The same subcommands also shard across processes and
// machines: start a coordinator with -coordinator ADDR and any number of
// workers with -worker URL (plus -dist-state FILE for resumable runs,
// -dist-lease N, -dist-lease-ttl DUR, -dist-cache DIR). Distribution
// never changes results — every task's seed derives from (seed, index)
// and reductions replay in index order, so the distributed output is
// byte-identical to a local run's.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "datagen":
		err = cmdDatagen(os.Args[2:])
	case "doegen":
		err = cmdDoegen(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "crossval":
		err = cmdCrossval(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "surface":
		err = cmdSurface(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "importance":
		err = cmdImportance(os.Args[2:])
	case "select":
		err = cmdSelect(os.Args[2:])
	case "runs":
		err = cmdRuns(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "nnwc: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nnwc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `nnwc — neural-network workload characterization (IISWC 2006 reproduction)

subcommands:
  datagen    run the three-tier simulator over a configuration sweep, emit CSV samples
  doegen     like datagen but with a space-filling experiment design (LHS/random/factorial)
  simulate   deep-dive one configuration: percentiles, CIs, per-pool breakdown
  train      train an MLP model on a sample CSV and save it as JSON
  crossval   k-fold cross-validation (the paper's Table 2 protocol)
  predict    predict the performance indicators of one configuration
  surface    evaluate a model over a 2-D configuration slice (the paper's 3-D figures)
  recommend  search for the best configuration under a scoring function
  serve      HTTP prediction server: a multi-tenant model fleet with cross-tenant
             batched inference, canary/shadow deployment, hot reload, metrics
  fleet      operate a running serve instance: list, deploy, promote, rollback
  compare    compare linear/polynomial/log/MLP/LNN model families by CV error
  importance permutation feature importance of a trained model on a dataset
  select     automated hidden-node-count selection by cross-validation
  runs       inspect recorded run traces: list, show, diff, plus the
             distributed-run views timeline (per-worker task lanes from the
             merged cluster trace) and tail (live coordinator progress)

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
