// Package splitmix is the repository's one pseudo-random number
// generator: splitmix64, a 64-bit counter advanced by the golden-ratio
// increment and avalanched by an invertible mixer.
//
// A stream is a pure function of its starting state, so callers derive
// independent, reproducible substreams by mixing their own seed, salt
// and index into that state (internal/fleet per chip, internal/load per
// run, internal/sensor per die); adding a draw to one substream never
// perturbs another. The seeddet lint forbids time-seeded math/rand,
// which this replaces everywhere but the trace generator:
// internal/trace keeps its seeded math/rand draws, because every golden
// pins them.
package splitmix

import "math"

// Golden is the stream increment, 2^64/φ.
const Golden = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer: an invertible avalanche that maps
// a weak counter state to a well-distributed 64-bit value.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a splitmix64 generator. The zero value is a valid (state-0)
// stream; callers start theirs with NewStream from a mixed state.
type Stream struct{ s uint64 }

// NewStream returns the stream whose counter starts at state.
func NewStream(state uint64) Stream { return Stream{s: state} }

// Next advances the stream and returns 64 uniform bits.
func (r *Stream) Next() uint64 {
	r.s += Golden
	return Mix64(r.s)
}

// Uniform returns a draw in (0, 1]: the top 53 bits are offset by half
// an ulp, so 0 is unreachable and log(u) stays finite for inverse-CDF
// transforms. The largest offset, 2^53 − ½, rounds to 2^53, so 1 itself
// comes up once in 2^53 draws.
func (r *Stream) Uniform() float64 {
	return (float64(r.Next()>>11) + 0.5) * (1.0 / (1 << 53))
}

// Intn returns a draw in [0, n); n must be positive.
func (r *Stream) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Normal returns the standard normal of the uniforms u1, u2 (Box-Muller,
// cosine branch). Every draw takes exactly two uniforms, so draw counts
// stay static.
func Normal(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
