package thermal

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ramp/internal/floorplan"
)

// TestQuasiSteadyDigest pins every bit of QuasiSteadyInto on dies of
// 1, 2, 4, 8 and 16 cores: FNV-1a over the IEEE-754 bits of each solved
// node (blocks, then spreader) for seeded block powers at three pinned
// sink temperatures. The manycore digest reaches the thermal model only
// through the scheduler and only up to four cores; this one covers the
// eight-core die the analysis workload schedules, and beyond. A changed
// digest means the solve moved, not merely its speed.
func TestQuasiSteadyDigest(t *testing.T) {
	const want = uint64(0x2788078e31a451bb)
	h := fnv.New64a()
	var buf [8]byte
	for _, n := range []int{1, 2, 4, 8, 16} {
		m := MustNew(floorplan.MustNewDie(floorplan.R10000Like(), n), DieParams(318.15, n))
		rng := rand.New(rand.NewSource(int64(100 + n)))
		x := make([]float64, m.Nodes()-1)
		for trial := 0; trial < 6; trial++ {
			pw := randomBlockPowers(rng, m.NumBlocks())
			for _, sinkK := range []float64{322.5, 345, 371.25} {
				m.QuasiSteadyInto(x, pw, sinkK)
				for _, v := range x {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("QuasiSteadyInto digest = %#x, want %#x: solved temperatures changed", got, want)
	}
}
