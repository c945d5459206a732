// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: two runs
// with the same seed must produce bit-identical reference streams and policy
// decisions, so the policies under comparison observe exactly the same
// workload. math/rand would work, but a self-contained implementation pins
// the sequence independently of Go release changes.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the splitmix64 generator by Sebastiano Vigna. It is used to
// seed other generators and for cheap one-off hashing of seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one splitmix64 round. Useful to derive independent
// seeds from (seed, index) pairs.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements xoshiro256** 1.0 (Blackman & Vigna), the simulator's
// workhorse generator.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// New returns a Xoshiro256 generator seeded from seed via splitmix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	x := Xoshiro256{sm.Next(), sm.Next(), sm.Next(), sm.Next()}
	// An all-zero state would be absorbing; splitmix cannot produce four
	// zero outputs from any seed, but guard anyway.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
	return &x
}

// Uint64 returns the next 64-bit value. The state update runs on locals —
// one load and one store per named state word — which keeps the function
// within the compiler's inlining budget, so the per-reference draws compile
// to straight-line code instead of calls.
func (x *Xoshiro256) Uint64() uint64 {
	s0, s1, s2, s3 := x.s0, x.s1, x.s2^x.s0, x.s3^x.s1
	x.s0 = s0 ^ s3
	x.s1 = s1 ^ s2
	x.s2 = s2 ^ s1<<17
	x.s3 = bits.RotateLeft64(s3, 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint32 returns the next 32-bit value (high bits of Uint64).
func (x *Xoshiro256) Uint32() uint32 { return uint32(x.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(x.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (x *Xoshiro256) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Zipf samples from a Zipf-like distribution over [0, n) using precomputed
// cumulative weights. It is a small, allocation-free sampler for skewed
// region selection in the workload generators.
type Zipf struct {
	// bound[i] is floor(cum[i]·2^53) for the normalised cumulative weight
	// cum[i], over the first n-1 items (the last is the fallback).
	bound []uint64
	rng   *Xoshiro256
}

// NewZipf builds a Zipf sampler over n items with exponent s (s >= 0;
// s == 0 degenerates to uniform). rng must not be nil.
func NewZipf(rng *Xoshiro256, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		w := 1.0 / math.Pow(float64(i+1), s)
		total += w
		cum[i] = total
	}
	bound := make([]uint64, n-1)
	for i := range bound {
		bound[i] = uint64(math.Ldexp(cum[i]/total, 53))
	}
	return &Zipf{bound: bound, rng: rng}
}

// Next returns the next sample in [0, n): the first item whose cumulative
// weight reaches u = Float64(). It compares the draw's top 53 bits x
// against the integer bounds — cum < x/2^53 exactly when floor(cum·2^53)
// < x, since scaling by 2^53 is exact — in a binary search that steps by
// the compare's borrow instead of branching on the random draw. Each step
// keeps every bound below base under x and the answer at most base+n.
func (z *Zipf) Next() int {
	x := z.rng.Uint64() >> 11
	b := z.bound
	var base uint
	n := uint(len(b))
	for n > 1 {
		half := n / 2
		_, lt := bits.Sub64(b[base+half-1], x, 0)
		base += half & -uint(lt)
		n -= half
	}
	if n == 1 {
		_, lt := bits.Sub64(b[base], x, 0)
		base += uint(lt)
	}
	return int(base)
}
