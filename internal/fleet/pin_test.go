package fleet

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ramp/internal/core"
	"ramp/internal/floorplan"
)

// TestReportDigest pins every bit of a fleet run's sampled outcome: FNV-1a
// over every Report field except MTTFYears (the analytic integral, not a
// sample), for two policies × {nominal, checkpoint at duty 0.8, repair
// with two spares} — the golden run's shape at a smaller chip count. The
// golden prints two to four decimals; this digest holds the rest.
func TestReportDigest(t *testing.T) {
	const want = uint64(0xbf7a201f3c443792)
	hot := multiCell()
	hot.FIT[floorplan.IntALU][core.EM] = 1400
	hot.FIT[floorplan.L1D][core.SM] = 300
	hot.FIT[floorplan.BPred][core.TC] = 250
	cfg := DefaultConfig(20_000, 3)
	cfg.Scenarios = []Scenario{
		NominalScenario(),
		{Name: "checkpoint", Duty: 0.8},
		{Name: "repair", Duty: 1, Spares: 2},
	}
	eng, err := New(cfg, []Policy{{Name: "cool", Assessment: multiCell()}, {Name: "hot", Assessment: hot}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := reportDigest(rep); got != want {
		t.Fatalf("fleet report digest = %#x, want %#x: sampled outcomes changed", got, want)
	}
}

// reportDigest hashes every Report field but MTTFYears in declaration
// order: numbers by their bits, strings and slices behind their length.
func reportDigest(r *Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	putS := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(r.Chips))
	put(r.Seed)
	put(uint64(r.Shards))
	put(uint64(r.ShardSize))
	put(uint64(len(r.Policies)))
	for _, p := range r.Policies {
		putS(p)
	}
	put(uint64(len(r.Results)))
	for i := range r.Results {
		sr := &r.Results[i]
		putS(sr.Policy)
		putS(sr.Scenario)
		put(uint64(sr.Chips))
		putF(sr.MeanYears)
		putF(sr.StdYears)
		putF(sr.Return7)
		putF(sr.Return11)
		put(uint64(len(sr.SurvivalYears)))
		for _, v := range sr.SurvivalYears {
			putF(v)
		}
		put(uint64(len(sr.Survival)))
		for _, v := range sr.Survival {
			putF(v)
		}
		for _, v := range sr.FailMix {
			putF(v)
		}
	}
	return h.Sum64()
}
