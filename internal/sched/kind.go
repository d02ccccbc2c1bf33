package sched

import "context"

// Kind is one experiment as an index-parallel task set: cross-validation
// folds, compare cells, surface-grid rows, importance features, topology
// candidates. Run computes task i from its index alone, reading only the
// shared state the kind holds (a fold split, an importance baseline, a
// parsed model), and Reduce folds the results in index order. Execute runs
// a kind in process; the dist plane's coordinator runs the same Run on
// workers and the same Reduce on what they send back, so both paths
// compute the same bits.
type Kind[R, O any] interface {
	// Scope names the span each task runs in ("cv-fold").
	Scope() string
	// Tasks is the size of the index space [0, Tasks()).
	Tasks() int
	// Run computes task i, emitting its events to the trace ctx carries.
	// It must be safe to call concurrently for distinct indices.
	Run(ctx context.Context, i int) (R, error)
	// Reduce folds the results, in index order, into the kind's output.
	// Summary events go to the trace ctx carries.
	Reduce(ctx context.Context, results []R) (O, error)
}

// Starter is implemented by kinds that open their trace with an event of
// their own (cross-validation's cv_start). Both executors call Start
// before any task runs.
type Starter interface {
	Start(ctx context.Context)
}

// Start calls k's Start if it has one.
func Start[R, O any](ctx context.Context, k Kind[R, O]) {
	if s, ok := k.(Starter); ok {
		s.Start(ctx)
	}
}

// Execute runs every task of k through Map on at most workers goroutines
// (<= 0 means the default), each in a span named k.Scope(), and reduces
// the results in index order.
func Execute[R, O any](ctx context.Context, workers int, k Kind[R, O]) (O, error) {
	Start(ctx, k)
	results, err := Map(ctx, workers, k.Scope(), k.Tasks(), k.Run)
	if err != nil {
		var zero O
		return zero, err
	}
	return k.Reduce(ctx, results)
}
