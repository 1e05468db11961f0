// Package rng provides small, fast, deterministic random number streams.
//
// Every region in a subdivision-based parallel planner owns an independent
// stream seeded from a global seed and the region's identifier. This makes
// planner output a pure function of (seed, parameters): results do not
// depend on which processor executed which region, nor on the order in
// which regions ran. That property is what allows the discrete-event
// machine simulator to replay identical workloads under different load
// balancing policies.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 is the SplitMix64 generator (Steele, Lea, Flood; JAVA 8's
// SplittableRandom finalizer). It is used both as a stream on its own and
// as the seeding function that decorrelates per-region streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0; prefer New or Derive for decorrelated streams.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	// Mix once so nearby seeds do not yield nearby first outputs.
	return &Stream{state: splitmix64(seed)}
}

// Derive returns an independent stream identified by (seed, id). Streams
// with distinct ids are decorrelated even for adjacent ids.
func Derive(seed, id uint64) *Stream {
	return &Stream{state: splitmix64(seed ^ splitmix64(id+0x632be59bd9b4e019))}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
