// Package sched is the deterministic task scheduler behind the experiment
// plane: bounded worker pools for embarrassingly parallel outer loops
// (cross-validation folds, ensemble members, sweep cells, surface-grid
// rows) behind one fan-out (Map), per-task seed derivation, bounded free lists of reusable
// workspaces (Pool) that, unlike a sync.Pool, never drop what they hold,
// and Kind, an experiment as an index-parallel task set, with Execute,
// its in-process executor (internal/dist/jobs holds the distributed one).
//
// Determinism is the design constraint everything else bends around. Tasks
// are identified by index, every task's random stream is derived from
// (base seed, task index) — never from scheduling order — and results land
// in index-addressed slots, so any floating-point reduction over them can
// run in task order afterwards. The consequence: a computation scheduled
// here is bit-identical across runs AND across worker counts, including
// workers=1, which makes the parallel paths pin-testable against the
// serial seed references.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
)

// tasksTotal counts every task the pools execute — a cheap liveness signal
// for the /metrics debug endpoint. One atomic add per task, no allocation.
var tasksTotal = metrics.Default().Counter("nnwc_sched_tasks_total",
	"Tasks executed by the deterministic scheduler.")

// defaultWorkers is the process-wide worker count used when a call site
// passes workers <= 0. Zero means "use GOMAXPROCS at call time".
var defaultWorkers atomic.Int64

// SetWorkers sets the process-wide default parallelism (the -workers flag
// of cmd/nnwc's subcommands lands here). n <= 0 restores the
// GOMAXPROCS default. Worker counts never affect results, only wall-clock.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves a requested worker count: a positive request wins,
// otherwise the process-wide default, otherwise runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if d := int(defaultWorkers.Load()); d > 0 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// Golden-ratio seed strides. The 32-bit stride is the cross-validation
// fold derivation the seed-reference tests pin; the 64-bit stride is the
// ensemble/sweep derivation. Both are pure functions of (base, index) so a
// task's stream does not depend on which worker runs it or when.
const (
	foldStride = 0x9e3779b9
	taskStride = 0x9e3779b97f4a7c15
)

// FoldSeed derives the seed for cross-validation fold i from the base seed.
func FoldSeed(base uint64, i int) uint64 { return base + uint64(i)*foldStride }

// TaskSeed derives the seed for task i (ensemble member, sweep cell,
// permutation stream) from the base seed.
func TaskSeed(base uint64, i int) uint64 { return base + uint64(i)*taskStride }

// Shard partitions the index space [0, n) into contiguous [lo, hi) ranges
// of at most size indexes — the lease unit the distributed coordinator
// hands to workers. Because every task's seed derives from its absolute
// index (FoldSeed/TaskSeed), a shard carries everything a remote worker
// needs: results do not depend on which process computes which range.
// size <= 0 yields one range covering everything; n <= 0 yields none.
func Shard(n, size int) [][2]int {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = n
	}
	shards := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		shards = append(shards, [2]int{lo, hi})
	}
	return shards
}

// Map runs task(ctx, i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the results in index order. Workers pull task
// indices from a shared counter, so all worker counts execute the same
// task set; tasks must be independent. Every task runs even if another
// fails; the error of the lowest-indexed failing task is returned, with no
// results, so error reporting is as deterministic as the results.
//
// Map forks the trace ctx carries: task i runs with slot i of the fork in
// its context, inside a span named scope, and the slots replay into the
// parent in index order, so the trace is as deterministic as the result.
// A context without a trace emits nothing. The span's worker field is the
// only place the executing goroutine shows: which worker runs which task
// is a scheduling accident, so tasks must not let it influence results
// (seeds and result slots key off the task index alone).
func Map[T any](ctx context.Context, workers int, scope string, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	fork := obs.TraceFromContext(ctx).Fork(n)
	run := func(i, w int) {
		tasksTotal.Inc()
		slot := fork.Slot(i)
		span := slot.StartSpan(scope, i, w)
		out[i], errs[i] = task(obs.ContextWithTrace(ctx, slot), i)
		span.End()
	}
	if workers = min(Workers(workers), n); workers <= 1 {
		// Inline fast path: no goroutines, identical semantics.
		for i := 0; i < n; i++ {
			run(i, 0)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i, w)
				}
			}()
		}
		wg.Wait()
	}
	fork.Join()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Pool is a bounded free list of reusable per-task scratch objects
// (training and prediction workspaces). Unlike a sync.Pool it never drops a
// value at GC or under -race, so warmed paths stay allocation-free. Values
// must be safe to reuse after a reset by their owner.
type Pool[T any] struct {
	free chan *T // up to 2×GOMAXPROCS: one per running fan-out task, plus slack
	newT func() *T
}

// NewPool returns a Pool that builds fresh values with newT.
func NewPool[T any](newT func() *T) *Pool[T] {
	return &Pool[T]{free: make(chan *T, 2*runtime.GOMAXPROCS(0)), newT: newT}
}

// Get takes a kept value or builds a new one.
func (p *Pool[T]) Get() *T {
	select {
	case v := <-p.free:
		return v
	default:
		return p.newT()
	}
}

// Put keeps v for a later Get unless the list is full.
func (p *Pool[T]) Put(v *T) {
	select {
	case p.free <- v:
	default:
	}
}
