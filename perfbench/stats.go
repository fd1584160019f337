package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"ramp/internal/exp"
)

// quantile returns the p-quantile (p in [0, 1]) of xs by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// orZero maps NaN (an empty sample) to 0 for reporting.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// simRate returns millions of simulated instructions per host second:
// every evaluation-cache miss simulates one evaluation of opts' length.
func simRate(misses int64, opts exp.Options, wall time.Duration) float64 {
	instr := opts.WarmupInstrs + uint64(opts.Epochs)*opts.EpochInstrs
	return float64(misses) * float64(instr) / wall.Seconds() / 1e6
}

// digest is an FNV-1a hash over formatted outputs, printed so two
// commits can be compared on results the goldens do not pin.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// newRNG returns the generator behind every seeded input (T_qual grids,
// request streams): a pure function of --seed and a per-input salt.
func newRNG(seed int64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), salt))
}
