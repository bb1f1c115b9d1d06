// Package rng provides small, fast, deterministic pseudo-random number
// generators for reproducible experiments.
//
// The HiCS contrast computation is a Monte Carlo procedure; the paper's
// experiments are reported as averages over seeded runs. To make every
// figure in this reproduction bit-for-bit repeatable, all stochastic
// components (slice sampling, candidate shuffling, data synthesis) draw
// from explicitly seeded generators from this package instead of the
// global math/rand source.
//
// The generator is xoshiro256**, seeded through splitmix64 as recommended
// by its authors. Independent sub-streams for parallel workers are derived
// with Derive, which hashes the parent state together with a stream label
// so that two workers never share a sequence.
package rng

import "math"

// splitmix64 advances a 64-bit state and returns the next output.
// It is used only for seeding and stream derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. The zero value is invalid; use New.
type RNG struct {
	s [4]uint64

	// cached second normal deviate for the polar method
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded from the given 64-bit seed. Any seed,
// including zero, yields a valid non-degenerate state.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Derive returns a new independent generator for the given stream label.
// The parent generator is not advanced, so Derive may be called
// concurrently with other Derive calls (but not with Uint64 etc.).
func (r *RNG) Derive(label uint64) *RNG {
	// A small inlinable wrapper: a caller that does not keep the child
	// gets it on its stack.
	child := new(RNG)
	r.deriveInto(child, label)
	return child
}

func (r *RNG) deriveInto(child *RNG, label uint64) {
	// Mix all four state words with the label through splitmix64.
	sm := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] << 2) ^ (r.s[3] << 3) ^ (label * 0x9e3779b97f4a7c15)
	for i := range child.s {
		child.s[i] = splitmix64(&sm)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi += aHi*bHi + t>>32
	return hi, lo
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// PermInto fills dst (len n) with a random permutation of [0, n),
// avoiding an allocation in hot loops.
func (r *RNG) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Normal returns a standard normal deviate using the Marsaglia polar method.
func (r *RNG) Normal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// NormalScaled returns a normal deviate with the given mean and stddev.
func (r *RNG) NormalScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Normal()
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
