// Package recommend implements the configuration recommender the paper
// sketches at the end of §5.3: "we can further build a system that
// recommends the best configuration according to a scoring function".
// A trained model stands in for the real system, so candidate
// configurations can be scored in microseconds instead of re-running the
// workload, and the search can cover the whole space instead of the few
// heuristic probes a performance engineer has time for.
package recommend

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nnwc/internal/core"
	"nnwc/internal/rng"
)

// Scorer maps a predicted indicator vector to a scalar score; higher is
// better.
type Scorer func(indicators []float64) float64

// SLAScore builds a Scorer that maximizes indicator `maximize` (typically
// throughput) subject to upper bounds on the remaining indicators: any
// violated bound incurs a steep penalty proportional to the violation, so
// infeasible configurations sort below all feasible ones. A bound of
// +Inf (or NaN) disables the constraint for that indicator.
func SLAScore(maximize int, bounds []float64) Scorer {
	return func(ind []float64) float64 {
		score := ind[maximize]
		var penalty float64
		for j, b := range bounds {
			if j == maximize || j >= len(ind) || math.IsInf(b, 1) || math.IsNaN(b) {
				continue
			}
			if ind[j] > b {
				penalty += 1 + (ind[j]-b)/b
			}
		}
		if penalty > 0 {
			return -penalty * 1e6
		}
		return score
	}
}

// Space bounds the search: per-feature [Lo, Hi] ranges and an optional
// integer constraint (thread counts are integers; injection rate is not).
type Space struct {
	Lo, Hi  []float64
	Integer []bool // nil means all continuous
}

// Validate reports specification errors.
func (s Space) Validate() error {
	if len(s.Lo) == 0 || len(s.Lo) != len(s.Hi) {
		return errors.New("recommend: Lo and Hi must be non-empty and equal length")
	}
	for i := range s.Lo {
		if s.Hi[i] < s.Lo[i] {
			return fmt.Errorf("recommend: feature %d has Hi < Lo", i)
		}
	}
	if s.Integer != nil && len(s.Integer) != len(s.Lo) {
		return errors.New("recommend: Integer mask length mismatch")
	}
	return nil
}

func (s Space) round(x []float64) {
	if s.Integer == nil {
		return
	}
	for i, isInt := range s.Integer {
		if isInt {
			x[i] = math.Round(x[i])
		}
	}
}

// Candidate is one scored configuration.
type Candidate struct {
	X     []float64
	Y     []float64
	Score float64
}

// Result ranks the best candidates found.
type Result struct {
	Best Candidate
	// Top holds the best candidates in descending score order (up to the
	// requested keep count).
	Top []Candidate
}

// The search's fixed budget: grid points per dimension of the coarse sweep,
// random probes after it, and rounds of local perturbation around the
// incumbent (each of randomProbes/4 probes); Search reports the topK best.
const (
	gridPoints   = 8
	randomProbes = 512
	refineRounds = 3
	topK         = 10
)

// Options tunes the search.
type Options struct {
	// Seed drives the random probes.
	Seed uint64
}

// Search explores the space with a coarse grid, random probes, and local
// refinement, scoring every candidate through the model.
func Search(p core.Predictor, space Space, score Scorer, opt Options) (*Result, error) {
	all, err := explore(p, space, score, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &Result{Best: all[0], Top: all[:min(topK, len(all))]}, nil
}

// explore scores every candidate of the search's three phases through the
// model and returns them all, best first.
func explore(p core.Predictor, space Space, score Scorer, seed uint64) ([]Candidate, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if score == nil {
		return nil, errors.New("recommend: a scoring function is required")
	}
	n := len(space.Lo)
	src := rng.New(seed)

	var all []Candidate
	eval := func(x []float64) {
		space.round(x)
		y := p.Predict(x)
		all = append(all, Candidate{X: append([]float64(nil), x...), Y: y, Score: score(y)})
	}

	// Phase 1: coarse grid, enumerated without recursion via counters.
	counts := make([]int, n)
	x := make([]float64, n)
	var gridTotal uint64 = 1
	for i := 0; i < n; i++ {
		gridTotal *= gridPoints
		if gridTotal > 1<<20 {
			return nil, fmt.Errorf("recommend: grid of %d^%d points is too large; search fewer dimensions", gridPoints, n)
		}
	}
	for {
		for i := 0; i < n; i++ {
			frac := float64(counts[i]) / (gridPoints - 1)
			x[i] = space.Lo[i] + frac*(space.Hi[i]-space.Lo[i])
		}
		eval(x)
		// Increment the mixed-radix counter.
		i := 0
		for ; i < n; i++ {
			counts[i]++
			if counts[i] < gridPoints {
				break
			}
			counts[i] = 0
		}
		if i == n {
			break
		}
	}

	// Phase 2: random probes.
	for k := 0; k < randomProbes; k++ {
		for i := 0; i < n; i++ {
			x[i] = src.Uniform(space.Lo[i], space.Hi[i])
		}
		eval(x)
	}

	// Phase 3: local refinement around the incumbent.
	for round := 0; round < refineRounds; round++ {
		sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
		incumbent := all[0]
		radius := math.Pow(0.5, float64(round+1))
		for k := 0; k < randomProbes/4; k++ {
			for i := 0; i < n; i++ {
				span := (space.Hi[i] - space.Lo[i]) * radius
				v := incumbent.X[i] + src.Uniform(-span, span)
				x[i] = math.Min(math.Max(v, space.Lo[i]), space.Hi[i])
			}
			eval(x)
		}
	}

	sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	return all, nil
}
