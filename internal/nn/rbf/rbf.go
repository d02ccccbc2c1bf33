// Package rbf implements radial-basis-function networks, the other
// function-approximation architecture the paper's §2.1 names alongside
// MLPs ("In the function approximation area, single or multilayer
// perceptrons and Radial Bases Function (RBF) networks are used").
//
// The network has one hidden layer of Gaussian units centred at prototype
// points and a linear output layer. Training is the classical two-stage
// scheme: (1) place the centres with k-means on the input cloud and set
// each unit's width from the distance to its nearest neighbouring centre;
// (2) solve the output weights as a (ridge-regularized) linear
// least-squares problem. Stage 2 is convex, so an RBF network trains in a
// single closed-form solve — a useful contrast to back-propagation in the
// model-comparison experiments.
package rbf

import (
	"errors"
	"fmt"
	"math"

	"nnwc/internal/linear"
	"nnwc/internal/rng"
	"nnwc/internal/stats"
)

// Config controls RBF construction.
type Config struct {
	// Centers is the number of hidden units (k-means clusters). Values
	// larger than the sample count are clamped.
	Centers int
	// WidthScale multiplies the nearest-neighbour width heuristic;
	// 1 is the usual choice, larger values smooth the fit.
	WidthScale float64
	// Lambda is the ridge penalty of the output solve.
	Lambda float64
	// Seed drives the k-means initialization.
	Seed uint64
}

func (c Config) defaults() Config {
	if c.Centers <= 0 {
		c.Centers = 10
	}
	if c.WidthScale <= 0 {
		c.WidthScale = 1
	}
	if c.Lambda < 0 {
		c.Lambda = 0
	}
	return c
}

// Network is a trained RBF network.
type Network struct {
	Centers [][]float64 // k × n prototype points
	Gammas  []float64   // per-unit 1/(2σ²)
	Out     *linear.Model
}

// Fit trains an RBF network mapping xs rows to ys rows.
func Fit(xs, ys [][]float64, cfg Config) (*Network, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("rbf: need equal, non-zero sample counts")
	}
	cfg = cfg.defaults()
	k := cfg.Centers
	if k > len(xs) {
		k = len(xs)
	}

	centers, err := kMeans(xs, k, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}

	// Width heuristic: σ_i = WidthScale × distance to the nearest other
	// centre (or the mean pairwise distance when there is one centre).
	gammas := make([]float64, len(centers))
	for i := range centers {
		d := nearestOtherCenter(centers, i)
		if stats.ExactZero(d) {
			d = 1
		}
		sigma := cfg.WidthScale * d
		gammas[i] = 1 / (2 * sigma * sigma)
	}

	// Output layer: linear least squares on the hidden activations.
	hidden := make([][]float64, len(xs))
	for r, x := range xs {
		hidden[r] = activations(centers, gammas, x)
	}
	out, err := linear.Fit(hidden, ys, linear.Options{Lambda: math.Max(cfg.Lambda, 1e-10)})
	if err != nil {
		return nil, fmt.Errorf("rbf: output solve: %w", err)
	}
	return &Network{Centers: centers, Gammas: gammas, Out: out}, nil
}

// Predict evaluates the network on one input.
func (n *Network) Predict(x []float64) []float64 {
	return n.Out.Predict(activations(n.Centers, n.Gammas, x))
}

func activations(centers [][]float64, gammas []float64, x []float64) []float64 {
	h := make([]float64, len(centers))
	for i, c := range centers {
		h[i] = math.Exp(-gammas[i] * sqDist(c, x))
	}
	return h
}

func sqDist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}

func nearestOtherCenter(centers [][]float64, i int) float64 {
	best := math.Inf(1)
	for j := range centers {
		if j == i {
			continue
		}
		if d := math.Sqrt(sqDist(centers[i], centers[j])); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return 1
	}
	return best
}

// kMeansIters bounds the Lloyd iterations.
const kMeansIters = 50

// kMeans clusters xs into k prototypes with Lloyd's algorithm, seeded by
// k-means++ style sampling.
func kMeans(xs [][]float64, k int, src *rng.Source) ([][]float64, error) {
	n := len(xs)
	dim := len(xs[0])
	for _, x := range xs {
		if len(x) != dim {
			return nil, errors.New("rbf: ragged input rows")
		}
	}

	// k-means++ initialization.
	centers := make([][]float64, 0, k)
	first := xs[src.Intn(n)]
	centers = append(centers, append([]float64(nil), first...))
	dist := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, x := range xs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(x, c); d < best {
					best = d
				}
			}
			dist[i] = best
			total += best
		}
		if stats.ExactZero(total) {
			// All remaining points coincide with existing centers;
			// duplicate one with a deterministic jitterless copy.
			centers = append(centers, append([]float64(nil), xs[src.Intn(n)]...))
			continue
		}
		target := src.Float64() * total
		var acc float64
		pick := n - 1
		for i, d := range dist {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), xs[pick]...))
	}

	assign := make([]int, n)
	counts := make([]int, k)
	for iter := 0; iter < kMeansIters; iter++ {
		changed := false
		for i, x := range xs {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centers {
				if d := sqDist(x, c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute the centroids.
		for ci := range centers {
			counts[ci] = 0
			for j := range centers[ci] {
				centers[ci][j] = 0
			}
		}
		for i, x := range xs {
			ci := assign[i]
			counts[ci]++
			for j, v := range x {
				centers[ci][j] += v
			}
		}
		for ci := range centers {
			if counts[ci] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centers[ci], xs[src.Intn(n)])
				continue
			}
			for j := range centers[ci] {
				centers[ci][j] /= float64(counts[ci])
			}
		}
	}
	return centers, nil
}
