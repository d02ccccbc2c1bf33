package recommend

import (
	"errors"
	"sort"

	"nnwc/internal/core"
	"nnwc/internal/stats"
)

// Objective states the preferred direction of one indicator.
type Objective int

const (
	// Ignore leaves the indicator out of the dominance comparison.
	Ignore Objective = iota
	// Minimize prefers smaller values (response times).
	Minimize
	// Maximize prefers larger values (throughput).
	Maximize
)

// dominates reports whether a dominates b under the objectives: at least
// as good everywhere and strictly better somewhere.
func dominates(a, b []float64, objs []Objective) bool {
	strictly := false
	for j, o := range objs {
		if j >= len(a) || j >= len(b) || o == Ignore {
			continue
		}
		av, bv := a[j], b[j]
		if o == Maximize {
			av, bv = -av, -bv
		}
		if av > bv {
			return false
		}
		if av < bv {
			strictly = true
		}
	}
	return strictly
}

// ParetoFront explores the space (grid plus random probes, as Search does)
// and returns the non-dominated candidates under the per-indicator
// objectives — the §5.3 recommender generalized: instead of collapsing the
// trade-off into one scoring function up front, the engineer gets the
// whole frontier of defensible configurations (e.g. every way to trade
// dealer-purchase latency against throughput) and chooses with context the
// model does not have.
func ParetoFront(p core.Predictor, space Space, objs []Objective, opt Options) ([]Candidate, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	anyActive := false
	for _, o := range objs {
		if o != Ignore {
			anyActive = true
		}
	}
	if !anyActive {
		return nil, errors.New("recommend: at least one objective must be active")
	}
	// Reuse Search's exploration with a neutral scorer; we only want its
	// candidate sweep, all of it: the front filter prunes.
	all, err := explore(p, space, func([]float64) float64 { return 0 }, opt.Seed)
	if err != nil {
		return nil, err
	}

	var front []Candidate
	for _, cand := range all {
		dominated := false
		replacement := front[:0:0]
		for _, f := range front {
			if dominates(f.Y, cand.Y, objs) || equalVec(f.X, cand.X) {
				dominated = true
				break
			}
			if !dominates(cand.Y, f.Y, objs) {
				replacement = append(replacement, f)
			}
		}
		if dominated {
			continue
		}
		front = append(replacement, cand)
	}
	// Deterministic presentation: sort by the first active objective.
	first := 0
	for j, o := range objs {
		if o != Ignore {
			first = j
			break
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if objs[first] == Maximize {
			return front[i].Y[first] > front[j].Y[first]
		}
		return front[i].Y[first] < front[j].Y[first]
	})
	return front, nil
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !stats.ExactEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
