// Package rng provides a small, deterministic pseudo-random number
// generator and the sampling distributions used by the synthetic workload
// generators. Everything in this repository that involves randomness is
// seeded through this package, so traces, simulations and experiments are
// fully reproducible.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014): a 64-bit LCG state with
// a permuted 32-bit output. It is fast, has a tiny state, and passes the
// statistical batteries that matter for workload synthesis.
//
// The trace generator draws several numbers per instruction, so the
// common draws are written to inline: Uint32, Uint64, Float64, Bool and
// Hit each fit the compiler's inlining budget (go build -gcflags=-m=2
// shows their costs; Bool is the closest, at 79 of 80). Uint64 takes both
// LCG steps in its own body around the shared output permutation, and
// Bool spells out Float64's expression rather than calling it. A caller
// that holds a PCG by value gets the draws with no call and no pointer
// chase, and one that tests a fixed probability per draw can prepare it
// once with NewChance. The output sequence is pinned by TestStreamGolden.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Multiplier and default increment of the underlying 64-bit LCG.
const (
	pcgMult       = 6364136223846793005
	pcgDefaultInc = 1442695040888963407
)

// PCG is a deterministic 32-bit-output pseudo-random number generator.
// The zero value is NOT usable; construct with New.
type PCG struct {
	state uint64
	inc   uint64 // always odd
}

// New returns a PCG seeded with seed on the default stream.
func New(seed uint64) *PCG {
	return NewStream(seed, pcgDefaultInc>>1)
}

// NewStream returns a PCG seeded with seed on the given stream. Distinct
// streams yield statistically independent sequences even for equal seeds,
// which lets one workload draw dependences, addresses, and branch outcomes
// from uncorrelated sources.
func NewStream(seed, stream uint64) *PCG {
	p := &PCG{inc: stream<<1 | 1}
	p.state = 0
	p.Uint32()
	p.state += seed
	p.Uint32()
	return p
}

// Uint32 returns the next 32 pseudo-random bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	return output(old)
}

// Uint64 returns the next 64 pseudo-random bits: two Uint32 outputs,
// the first in the high half. Both LCG steps sit in this one body, so
// Uint64 and the Float64 and Bool built on it inline.
func (p *PCG) Uint64() uint64 {
	s0 := p.state
	s1 := s0*pcgMult + p.inc
	p.state = s1*pcgMult + p.inc
	return uint64(output(s0))<<32 | uint64(output(s1))
}

// output is PCG-XSH-RR's permutation of an LCG state into 32 bits.
func output(state uint64) uint32 {
	return bits.RotateLeft32(uint32((state>>18^state)>>27), -int(state>>59))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0; that is a
// programming error, not an input error. An n above MaxUint32 draws
// through Int63n; below it, one Uint32 usually suffices.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n %d", n))
	}
	if uint64(n) > math.MaxUint32 {
		return int(p.Int63n(int64(n)))
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint32(n)
	for {
		v := p.Uint32()
		prod := uint64(v) * uint64(bound)
		low := uint32(prod)
		if low >= bound {
			return int(prod >> 32)
		}
		// Rejection zone: retry if below the threshold that would bias.
		threshold := -bound % bound
		if low >= threshold {
			return int(prod >> 32)
		}
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (p *PCG) Int63n(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Int63n with non-positive n %d", n))
	}
	max := uint64(n)
	// Simple rejection against the largest multiple of n below 2^63.
	limit := (1 << 63) / max * max
	for {
		v := p.Uint64() >> 1
		if v < limit {
			return int64(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability prob. It spells out Float64 rather
// than calling it: the nested call would put Bool over the inlining
// budget.
func (p *PCG) Bool(prob float64) bool {
	return float64(p.Uint64()>>11)/(1<<53) < prob
}

// Chance is a probability prepared for repeated draws with Hit.
type Chance uint64

// NewChance prepares prob for Hit. Bool(prob) tests m/2^53 < prob for
// the 53-bit draw m; the division is exact, so that is m < ⌈prob·2^53⌉,
// an integer test. A NaN prob, which Bool never accepts, gives 0.
func NewChance(prob float64) Chance {
	switch {
	case !(prob > 0):
		return 0
	case prob >= 1:
		return 1 << 53
	}
	return Chance(math.Ceil(prob * (1 << 53)))
}

// Hit returns what Bool returns for the probability c was made from, and
// consumes the same draw, without converting the draw to a float.
func (p *PCG) Hit(c Chance) bool {
	return p.Uint64()>>11 < uint64(c)
}

// Normal samples from a normal distribution via the Box–Muller transform.
func (p *PCG) Normal(mean, stddev float64) float64 {
	u1 := p.Float64()
	u2 := p.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Weighted selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative weights are treated as zero.
// If all weights are zero it returns 0.
func (p *PCG) Weighted(weights []float64) int {
	return p.WeightedSum(weights, WeightSum(weights))
}

// WeightSum returns the total Weighted draws against: the sum of the
// positive weights, added in index order.
func WeightSum(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// WeightedSum is Weighted with the total precomputed by WeightSum, for a
// caller that draws many times from fixed weights. It returns what
// Weighted returns and consumes the same draws.
func (p *PCG) WeightedSum(weights []float64, total float64) int {
	if total <= 0 {
		return 0
	}
	target := p.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
