// Package rng provides deterministic, seedable pseudo-random number
// generation and the random variates the simulator and trainers need
// (uniform, normal, exponential, lognormal).
//
// Every stochastic component in this repository draws from an explicit
// *rng.Source so that experiments are reproducible end to end from a single
// seed. The generator is xoshiro256**, seeded through splitmix64, following
// Blackman & Vigna. Only the Go standard library is used.
package rng

import "math"

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; create one Source per goroutine (see Split).
type Source struct {
	s        [4]uint64
	spare    float64 // cached Box–Muller variate
	hasSpare bool
}

// New returns a Source seeded with seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	r := &Source{}
	// splitmix64 seeding avoids the all-zero state and decorrelates
	// similar seeds.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent Source from r. The derived stream is
// decorrelated from the parent's subsequent output, so a parent can hand
// child streams to subcomponents while continuing to draw itself.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling, simplified: the bias
	// for n << 2^64 is negligible for simulation purposes, but we still
	// reject to keep the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, with the
// Fisher–Yates algorithm.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Norm returns a standard normal variate (mean 0, stddev 1) using the
// Box–Muller transform. The spare value is cached, so consecutive calls
// alternate between the sine and cosine branches.
func (r *Source) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	// One Sincos gives the bits of separate Sin and Cos calls (DESIGN §7).
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.spare = mag * sin
	r.hasSpare = true
	return mag * cos
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// LogNormal returns a log-normal variate where the underlying normal has
// the given mu and sigma.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}
