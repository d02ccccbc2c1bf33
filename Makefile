GO ?= go

.PHONY: all build vet lint lint-report test race dist-test cluster-test bench-smoke bench perfbench loc ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see DESIGN.md §11 and §16):
# determinism-source confinement, scheduler confinement, map-range
# ordering, hot-path allocation discipline, float-equality, and the
# concurrency/resource-lifecycle rules (ctxflow, lockhold,
# goroutine-lifecycle, pooldiscipline, errcheck-results), driven by
# lint.conf. Fails on every finding not waived in the source with a
# //lint:waive justification: the tip lints clean.
lint:
	$(GO) run ./cmd/nnwc-lint ./...

# Machine-readable lint report (the CI artifact): the same run as `make
# lint` but as JSON, including waived findings with their //lint:waive
# justifications so suppressions stay auditable. Never fails: the report
# is for reading, `make lint` is the gate.
lint-report:
	-$(GO) run ./cmd/nnwc-lint -json ./... > lint-report.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Multi-process distribution tests (see DESIGN.md §14): coordinator + real
# worker processes over HTTP, SIGKILLed and replaced mid-lease, with the
# final cross-validation byte-compared to the serial seed reference.
dist-test:
	$(GO) test -race -count 1 -v -run 'TestDist' ./internal/dist/ ./internal/dist/jobs/

# Cluster observability tests (see DESIGN.md §15): merged cluster-trace
# determinism across worker counts and across SIGKILL-plus-reassignment,
# per-worker metrics federation, and the shared request middleware, all
# under the race detector.
cluster-test:
	$(GO) test -race -count 1 -v -run 'TestClusterTrace|TestDistClusterTrace|TestCoordinatorMetricsFederation|TestInstrument' ./internal/dist/ ./internal/dist/jobs/ ./internal/httpx/

# One iteration of every benchmark: catches bit-rot in the bench harnesses
# without paying for real measurement runs.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Real measurement runs of the hot paths. The training kernels (DESIGN.md §6
# and §13): the mat kernels beside their portable Go versions, each width
# of assembly and each vectorized logistic the host runs, the served
# forward pass by batch size, backprop, the epoch and a Table 2 fold's
# training, the whole warm fold with its split, fit and evaluation
# (BenchmarkCrossValidateFold), the logistic, its derivative sweep, and the
# RPROP step. The
# simulator (DESIGN.md §7): one sample campaign of perfbench's sweep
# (BenchmarkCollect) and one long single run (BenchmarkSimulation).
bench:
	$(GO) test -run '^$$' -bench 'FoldKernel|Forward|Backprop|Epoch|CrossValidateFold|LogisticRow|LogisticKernels|ScaleByDeriv|RPROPStep' -benchmem -benchtime 2s ./internal/mat ./internal/nn ./internal/train ./internal/core
	$(GO) test -run '^$$' -bench 'Collect|Simulation' -benchmem -benchtime 2s ./internal/threetier

# The repository's benchmark (see perfbench/README.md and BENCHMARK.json):
# a short traced run of every workload, each checking its outputs before it
# reports. The JSON result lines are collected in perfbench-results.jsonl.
# Before/after comparisons need longer runs over several seeds.
PERFBENCH_WORKLOADS = predict_single fleet_mixed crossval_dist

perfbench:
	@rm -f perfbench-results.jsonl
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 >> perfbench-results.jsonl; \
	done

# Line counts the way ROADMAP.md's scorecard counts them: tracked files
# only (git ls-files), leaving out testdata/ and perfbench/. Not a gate;
# CI does not run it.
LOC_SKIP = grep -v -e 'testdata/' -e '^perfbench/'

loc:
	@printf 'non-test Go:    %s\n' "$$(git ls-files '*.go' | grep -v '_test\.go$$' | $(LOC_SKIP) | xargs cat | wc -l)"
	@printf 'test Go:        %s\n' "$$(git ls-files '*_test.go' | $(LOC_SKIP) | xargs cat | wc -l)"
	@printf 'amd64 assembly: %s\n' "$$(git ls-files '*_amd64.s' | $(LOC_SKIP) | xargs cat | wc -l)"

ci: build vet lint race bench-smoke

clean:
	rm -rf results
	$(GO) clean -testcache
