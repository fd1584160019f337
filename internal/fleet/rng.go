// Deterministic stream-split pseudo-random numbers for the fleet Monte
// Carlo engine.
//
// Every virtual chip owns independent random streams derived purely
// from (engine seed, stream salt, chip index) via splitmix64 mixing
// (internal/splitmix).
// A chip's draws therefore never depend on which worker shard processes
// it or on how many workers run: shard results are sums of per-chip
// outcomes, each a pure function of (seed, chip), merged in fixed shard
// order — bitwise identical at any worker count.
//
// Three salted substreams separate concerns so that adding draws to one
// never perturbs another (common-random-numbers across configurations):
//
//	saltVariation  per-chip process-variation multipliers
//	saltLifetime   per-cell inverse-CDF Weibull lifetime uniforms
//	saltRepair     spare-unit repair resamples, split further by
//	               (policy, scenario) because the failing component —
//	               and hence the number of repair draws — differs
package fleet

import (
	"math"

	"ramp/internal/splitmix"
)

// Substream salts. Arbitrary odd constants, distinct so the mixed
// starting states decorrelate.
const (
	saltVariation uint64 = 0xa5a5a5a5_0badf00d
	saltLifetime  uint64 = 0x5ee5_1ee7_cafe_f00f
	saltRepair    uint64 = 0xdead_beef_1234_5679
)

// chipStream derives the chip's substream for one salt. The chip index
// is spread by the golden-ratio stride and avalanched before the salt
// folds in, so neighbouring chips and neighbouring salts land in
// unrelated regions of the state space.
func chipStream(seed, salt, chip uint64) splitmix.Stream {
	return splitmix.NewStream(splitmix.Mix64(splitmix.Mix64(seed+splitmix.Golden*chip) ^ salt))
}

// uniform maps a 53-bit draw x (Next() >> 11) to the value
// splitmix.Stream.Uniform returns for it, (x + ½)·2^-53.
func uniform(x uint64) float64 {
	return (float64(x) + 0.5) * (1.0 / (1 << 53))
}

// normal returns the standard normal of the uniforms u1, u2
// (Box-Muller, cosine branch). Every draw takes exactly two uniforms,
// so draw counts stay static.
func normal(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// lognormal returns the mean-one lognormal of the uniforms u1, u2 with
// log-scale sigma: exp(sigma·N − sigma²/2) has expectation exactly 1,
// so variation multipliers spread the fleet without shifting its
// average rate.
func lognormal(u1, u2, sigma float64) float64 {
	return math.Exp(sigma*normal(u1, u2) - sigma*sigma/2)
}
