package core

import (
	"context"
	"errors"
	"fmt"

	"nnwc/internal/obs"
	"nnwc/internal/sched"
	"nnwc/internal/workload"
)

// NodeCountResult records one candidate topology's cross-validated error.
type NodeCountResult struct {
	Hidden []int
	// Error is the mean validation HMRE across folds and indicators.
	Error float64
	// Params is the trainable-parameter count of the topology.
	Params int
}

// SelectionResult is the outcome of SelectNodeCount.
type SelectionResult struct {
	Best       NodeCountResult
	Candidates []NodeCountResult
}

// SelectNodeCount automates the §3.2 choice the paper made by hand ("the
// MLP node count and the termination threshold were manually tuned for the
// first trial"): it runs SelectKind in process, tracing into base.Trace.
func SelectNodeCount(ds *workload.Dataset, base Config, candidates [][]int, k int, seed uint64) (*SelectionResult, error) {
	kind, err := SelectKind(ds, base, candidates, k, seed)
	if err != nil {
		return nil, err
	}
	return sched.Execute(obs.ContextWithTrace(context.TODO(), base.Trace), 0, kind)
}

// selectKind is topology selection as a sched.Kind: one task per
// candidate hidden layout.
type selectKind struct {
	ds         *workload.Dataset
	base       Config
	candidates [][]int
	k          int
	seed       uint64
}

// SelectKind is topology selection as a sched.Kind: task i scores
// candidates[i] by k-fold cross-validation of ds with base's config and
// seed, so a score does not depend on what else is scored or where, and
// Reduce picks the lowest error, ties (within 2% relative) breaking toward
// fewer parameters — §3.3's preference for flexible, loosely fitted
// models. A candidate traces its cross-validation only when base.Trace is
// set, into the task's trace; the select_candidate event goes there
// either way.
func SelectKind(ds *workload.Dataset, base Config, candidates [][]int, k int, seed uint64) (sched.Kind[NodeCountResult, *SelectionResult], error) {
	if len(candidates) == 0 {
		return nil, errors.New("core: no candidate topologies")
	}
	return &selectKind{ds: ds, base: base, candidates: candidates, k: k, seed: seed}, nil
}

func (s *selectKind) Scope() string { return "select-candidate" }
func (s *selectKind) Tasks() int    { return len(s.candidates) }

func (s *selectKind) Run(ctx context.Context, i int) (NodeCountResult, error) {
	hidden := s.candidates[i]
	if len(hidden) == 0 {
		return NodeCountResult{}, errors.New("core: empty hidden layout in candidates")
	}
	tr := obs.TraceFromContext(ctx)
	cfg := s.base
	cfg.Hidden = hidden
	if cfg.Trace != nil {
		cfg.Trace = tr
	}
	cv, err := CrossValidate(s.ds, cfg, s.k, s.seed)
	if err != nil {
		return NodeCountResult{}, fmt.Errorf("core: scoring topology %v: %w", hidden, err)
	}
	cand := NodeCountResult{
		Error:  cv.OverallError(),
		Params: CountParams(s.ds.NumFeatures(), hidden, s.ds.NumTargets()),
	}
	if tr.Enabled() {
		tr.Emit("select_candidate",
			obs.Int("candidate", i),
			obs.String("hidden", fmt.Sprint(hidden)),
			obs.Int("params", cand.Params),
			obs.Float("error", cand.Error),
		)
	}
	return cand, nil
}

// Reduce names each score by its layout and picks the best. Candidate
// order matters only for exact ties, and results arrive in declared order.
func (s *selectKind) Reduce(_ context.Context, cands []NodeCountResult) (*SelectionResult, error) {
	for i := range cands {
		cands[i].Hidden = append([]int(nil), s.candidates[i]...)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		switch {
		case c.Error < best.Error*0.98:
			best = c
		case c.Error <= best.Error*1.02 && c.Params < best.Params:
			best = c
		}
	}
	return &SelectionResult{Best: best, Candidates: cands}, nil
}

// CountParams is the trainable-parameter count of a topology.
func CountParams(in int, hidden []int, out int) int {
	params := 0
	prev := in
	for _, h := range hidden {
		params += prev*h + h
		prev = h
	}
	return params + prev*out + out
}
