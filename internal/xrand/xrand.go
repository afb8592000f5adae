// Package xrand provides small, fast, deterministic pseudo-random streams
// used by the simulators' noise and workload models.
//
// We deliberately do not use math/rand's global state: every consumer
// derives its own named stream from a root seed so that adding a new
// random draw in one component never perturbs the sequence seen by
// another — a prerequisite for stable regression tests across the
// repository.
package xrand

import "math"

// Stream is a SplitMix64 generator. The zero value is a valid stream
// seeded with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// Derive returns an independent child stream identified by name. The
// derivation hashes the name (FNV-1a) into the parent's seed without
// consuming parent state, so sibling streams are stable regardless of
// the order in which they are created.
func (s *Stream) Derive(name string) *Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &Stream{state: mix(s.state ^ h)}
}

// State returns the stream's current internal state. Two streams with
// equal state produce identical sequences, so the state serves as a
// memo key for pure functions of a stream.
func (s *Stream) State() uint64 { return s.state }

// Uint64 returns the next value in the stream.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (s *Stream) NormFloat64() float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Jitter returns a multiplicative factor 1 + N(0, sigma) truncated to
// [1-3*sigma, 1+3*sigma]; it is used to model run-to-run timing noise.
// The float64 conversions round each product before the sum, so no
// architecture may fuse them into one FMA and compute other bits.
func (s *Stream) Jitter(sigma float64) float64 {
	j := 1 + float64(sigma*s.NormFloat64())
	lo, hi := 1-float64(3*sigma), 1+float64(3*sigma)
	if j < lo {
		return lo
	}
	if j > hi {
		return hi
	}
	return j
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
