// Bounds on every cell's log-lifetime from the top bits of its draws.
//
// Under a policy a cell fails at t = η·z, where
//
//	z  = (−ln u)^(1/β) / (sv·L^γ)
//	sv = exp(σ·√(−2 ln u₁)·cos(2πu₂) − σ²/2)
//
// so log t = log η + (1/β)·log(−log u) − log sv − γ·ln L. Each
// transcendental factor is monotone in its uniform across a bucket of
// the bucketBits top bits of the 53-bit draw behind it (cos(2πu) turns
// at u = 0.5, a bucket edge), so its values at every bucket's first and
// last draw bound it for any draw in the bucket. The leakage factor
// ln L is drawn exactly, since it enters every cell.
//
// Only the first 1 + S failures of a policy can reach a report, S being
// the largest spare count, so the sampler evaluates the exact
// expressions only for cells whose lower bound does not exceed the
// (S+1)-th smallest upper bound (see Engine.candidates).
package fleet

import (
	"math"
	"sync"
)

const (
	// bucketBits is the width of the table index: the top bits of a
	// 53-bit draw.
	bucketBits  = 10
	bucketShift = 53 - bucketBits

	// boundMargin widens every cell interval. It is far above the
	// few-ulp error of the tables and of the exact expressions, under
	// 1e-12 while z and t are normal float64 values.
	boundMargin = 1e-9
)

// boundTables holds, per bucket, the [low, high] range of each
// transcendental factor over the bucket's draws (48 KiB).
type boundTables struct {
	logLog [1 << bucketBits][2]float64 // log(−log u)
	radius [1 << bucketBits][2]float64 // √(−2 log u)
	cos    [1 << bucketBits][2]float64 // cos(2πu)
}

// tables builds the bound tables once per process, on the first New.
var tables = sync.OnceValue(func() *boundTables {
	tab := new(boundTables)
	for b := range tab.logLog {
		first := uniform(uint64(b) << bucketShift)
		last := uniform(uint64(b+1)<<bucketShift - 1)
		// log(−log u) and √(−2 log u) fall as u rises; at u = 1 (the
		// top bucket's last draw) the first is −Inf.
		tab.logLog[b] = [2]float64{math.Log(-math.Log(last)), math.Log(-math.Log(first))}
		tab.radius[b] = [2]float64{math.Sqrt(-2 * math.Log(last)), math.Sqrt(-2 * math.Log(first))}
		c0, c1 := math.Cos(2*math.Pi*first), math.Cos(2*math.Pi*last)
		tab.cos[b] = [2]float64{min(c0, c1), max(c0, c1)}
	}
	return tab
})

// logSV bounds log sv = σ·√(−2 log u₁)·cos(2πu₂) − σ²/2 for the
// structure draws x = (x₁, x₂) through the product of the radius and
// cosine intervals (the radius is never negative).
func (tab *boundTables) logSV(x [2]uint64, sigma float64) (lo, hi float64) {
	r, c := &tab.radius[x[0]>>bucketShift], &tab.cos[x[1]>>bucketShift]
	lo = sigma*min(r[0]*c[0], r[1]*c[0]) - sigma*sigma/2
	hi = sigma*max(r[0]*c[1], r[1]*c[1]) - sigma*sigma/2
	return lo, hi
}

// boundCells fills st.lo and st.hi with every cell's log z interval,
// widened by boundMargin, from the chip's draws and its exact ln L.
//
//ramp:hot
func (e *Engine) boundCells(st *shardState, lnL float64) {
	v := &e.cfg.Variation
	var gl [numMechs]float64
	for m := range gl {
		gl[m] = v.LeakGamma[m] * lnL
	}
	for s := 0; s < numStructs; s++ {
		svLo, svHi := 0.0, 0.0
		if v.StructSigma > 0 {
			svLo, svHi = e.tab.logSV(st.svX[s], v.StructSigma)
		}
		for m := 0; m < numMechs; m++ {
			c := s*numMechs + m
			ll := &e.tab.logLog[st.lifeX[c]>>bucketShift]
			st.lo[c] = e.invBeta[c]*ll[0] - svHi - gl[m] - boundMargin
			st.hi[c] = e.invBeta[c]*ll[1] - svLo - gl[m] + boundMargin
		}
	}
}
