package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"ramp/internal/config"
	"ramp/internal/floorplan"
	"ramp/internal/trace"
)

// The tests in this file pin the simulator's output bit for bit. The
// expected values were recorded before the per-cycle loop learned to
// skip idle cycles; any change to them means the timing model moved,
// not merely its speed.

// hashResult folds the bit pattern of every Result field into h, in
// declaration order (floats by their IEEE-754 bits).
func hashResult(h hash.Hash64, r Result) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			put(v.Uint())
		case reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic("hashResult: unhandled field kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(r))
}

const (
	digestWarmup = 2_000
	digestEpoch  = 4_000
	digestEpochs = 3
)

// digestRun resets c onto (proc, app) and hashes the epochs that follow a
// short warm-up.
func digestRun(t *testing.T, h hash.Hash64, c *Core, proc config.Proc, app trace.Profile) {
	t.Helper()
	if err := c.Reset(proc, mustGenerator(app, 1)); err != nil {
		t.Fatalf("%s on %s: %v", app.Name, proc.Name, err)
	}
	c.Run(digestWarmup)
	for i := 0; i < digestEpochs; i++ {
		hashResult(h, c.Run(digestEpoch))
	}
}

// TestResultDigest runs every application on every adaptation-space
// configuration at three clock frequencies and hashes each epoch's
// Result. A final run switches the operating point between epochs, the
// path drm.Controller drives. Under -short (the race lane) it covers each
// application on three configurations, one per frequency.
func TestResultDigest(t *testing.T) {
	const (
		wantFull  = uint64(0x301f3b63ca522280)
		wantShort = uint64(0xc4169a4af80e716f)
	)
	freqs := []float64{2.5e9, 4.0e9, 5.0e9}
	archs := config.ArchConfigs()
	h := fnv.New64a()
	c := mustNew(config.Base(), newScript([]trace.Instr{{Op: trace.IntAlu}}))
	for _, app := range trace.Apps() {
		if testing.Short() {
			for i, ai := range []int{0, 10, len(archs) - 1} {
				digestRun(t, h, c, archs[ai].WithOperatingPoint(freqs[i]), app)
			}
			continue
		}
		for _, proc := range archs {
			for _, f := range freqs {
				digestRun(t, h, c, proc.WithOperatingPoint(f), app)
			}
		}
	}

	// DVS between epochs, as drm.Controller does.
	if err := c.Reset(config.Base(), mustGenerator(trace.Bzip2(), 1)); err != nil {
		t.Fatal(err)
	}
	c.Run(digestWarmup)
	for _, f := range []float64{4.0e9, 2.5e9, 5.0e9, 3.0e9} {
		c.SetOperatingPoint(f, config.VoltageForFreq(f))
		hashResult(h, c.Run(digestEpoch))
	}

	want := wantFull
	if testing.Short() {
		want = wantShort
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Result digest = %#x, want %#x: simulated timing changed", got, want)
	}
}

// pinned is the part of a Result the edge-case tests hold fixed.
type pinned struct {
	Cycles, Retired uint64
	Activity        [floorplan.NumStructures]float64
	WindowOccupancy float64
}

func pin(r Result) pinned {
	return pinned{r.Cycles, r.Retired, r.Activity, r.WindowOccupancy}
}

// samePin compares two pins bit for bit.
func samePin(a, b pinned) bool {
	if a.Cycles != b.Cycles || a.Retired != b.Retired ||
		math.Float64bits(a.WindowOccupancy) != math.Float64bits(b.WindowOccupancy) {
		return false
	}
	for i := range a.Activity {
		if math.Float64bits(a.Activity[i]) != math.Float64bits(b.Activity[i]) {
			return false
		}
	}
	return true
}

// stepUntil single-steps c until cond holds, failing after limit steps.
func stepUntil(t *testing.T, c *Core, limit int, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		c.step()
		if cond() {
			return
		}
	}
	t.Fatalf("%s never happened in %d steps", what, limit)
}

// TestEdgeMSHRsExhausted: independent loads that all miss to memory fill
// every L1D MSHR, so further misses wait for a fill to complete.
func TestEdgeMSHRsExhausted(t *testing.T) {
	c := mustNew(config.Base(), &stridedMissSource{})
	stepUntil(t, c, 2_000, "all L1D MSHRs busy", func() bool {
		live := 0
		for _, r := range c.dMSHR.ready {
			if r >= c.cycle {
				live++
			}
		}
		return live == c.cfg.L1D.MSHRs
	})

	c = mustNew(config.Base(), &stridedMissSource{})
	c.Run(500)
	want := pinned{
		Cycles: 25500, Retired: 3000,
		Activity: [floorplan.NumStructures]float64{
			0.014725490196078432, 0, 0.012605042016806723, 0.014705882352941176,
			0, 0, 0.058823529411764705, 0,
			0.058823529411764705, 0.0036862745098039215, 0.058823529411764705,
		},
		WindowOccupancy: 32,
	}
	if got := pin(c.Run(3_000)); !samePin(got, want) {
		t.Fatalf("MSHR-bound run:\n got %#v\nwant %#v", got, want)
	}
}

// TestEdgeDividersSaturated: back-to-back independent integer and FP
// divides keep every non-pipelined unit busy, so issue waits on the
// units' busy-until cycles.
func TestEdgeDividersSaturated(t *testing.T) {
	divs := []trace.Instr{{Op: trace.IntDiv}, {Op: trace.FPDiv}}
	c := mustNew(config.Base(), newScript(divs))
	stepUntil(t, c, 200, "every divider busy", func() bool {
		for _, b := range c.intBusyUntil {
			if b < c.cycle {
				return false
			}
		}
		for _, b := range c.fpBusyUntil {
			if b < c.cycle {
				return false
			}
		}
		return true
	})

	c = mustNew(config.Base(), newScript(divs))
	c.Run(1_000)
	want := pinned{
		Cycles: 9079, Retired: 6001,
		Activity: [floorplan.NumStructures]float64{
			0.08481110254433308, 0, 0.07151117964533539, 0.042088886441238024,
			0.08260821676396078, 0.05611851525498403, 0, 0.08260821676396078,
			0, 0.02120277563608327, 0,
		},
		WindowOccupancy: 126.64500495649301,
	}
	if got := pin(c.Run(6_000)); !samePin(got, want) {
		t.Fatalf("divider-bound run:\n got %#v\nwant %#v", got, want)
	}
}

// coldCodeSource emits two-instruction blocks, an ALU op and a
// conditional branch, each block on a fresh 64-byte code line of a
// footprint eight times the L1I. The branch outcome comes from a fixed
// LCG, so roughly half the branches mispredict: fetch stalls on the
// I-cache miss, then blocks on the mispredicted branch fetched right
// after the fill, then redirects.
type coldCodeSource struct {
	pc    uint64
	slot  int
	state uint64
}

func (s *coldCodeSource) Next(out *trace.Instr) {
	const base, footprint = 1 << 24, 256 << 10
	if s.slot == 0 {
		s.slot = 1
		*out = trace.Instr{Op: trace.IntAlu, PC: base + s.pc}
		return
	}
	s.slot = 0
	s.state = s.state*6364136223846793005 + 1442695040888963407
	pc := base + s.pc + 4
	s.pc = (s.pc + 64) % footprint
	*out = trace.Instr{Op: trace.Branch, PC: pc, Taken: s.state>>63 == 1, Target: base + s.pc}
}

// TestEdgeICacheMissThenMispredict: an I-cache miss followed by a
// mispredicted branch, so fetch stalls on the fill, blocks on the
// branch, and spends a redirect cycle before fetching again.
func TestEdgeICacheMissThenMispredict(t *testing.T) {
	c := mustNew(config.Base(), &coldCodeSource{})
	var misses, missStall uint64
	blocked := false
	stepUntil(t, c, 5_000, "a mispredicted branch fetched as an I-cache fill lands", func() bool {
		wasBlocked := blocked
		blocked = c.fetchBlocked != 0
		if m := c.l1i.Misses(); m != misses {
			misses, missStall = m, c.fetchStallTo
			return false
		}
		return blocked && !wasBlocked && c.cycle-1 == missStall
	})
	stepUntil(t, c, 1_000, "the redirect after the branch resolves", func() bool {
		return c.fetchBlocked == 0 && c.fetchStallTo == c.cycle
	})

	c = mustNew(config.Base(), &coldCodeSource{})
	c.Run(1_000)
	want := pinned{
		Cycles: 210228, Retired: 4000,
		Activity: [floorplan.NumStructures]float64{
			0.002378370150503263, 0.004756740301006526, 0.0020386029861456543, 0.001981975125419386,
			0, 0.0031711602006710177, 0, 0,
			0, 0.004756740301006526, 0,
		},
		WindowOccupancy: 0.03805392240805221,
	}
	if got := pin(c.Run(4_000)); !samePin(got, want) {
		t.Fatalf("I-miss/mispredict run:\n got %#v\nwant %#v", got, want)
	}
}

// headStoreSource repeats a group of three: an integer divide, a store
// that depends on it, and a load of the same word that depends on it
// too. Each group stores to a fresh line.
type headStoreSource struct {
	n    int
	addr uint64
}

func (s *headStoreSource) Next(out *trace.Instr) {
	switch s.n % 3 {
	case 0:
		s.addr += 64
		*out = trace.Instr{Op: trace.IntDiv}
	case 1:
		*out = trace.Instr{Op: trace.Store, Addr: 5<<30 + s.addr, Dep1: 1}
	default:
		*out = trace.Instr{Op: trace.Load, Addr: 5<<30 + s.addr, Dep1: 2}
	}
	out.PC = 1<<20 + uint64(s.n%1024)*4
	s.n++
}

// TestEdgeForwardFromHeadStore: the store and the load of each group
// become ready in the cycle their divide retires, which leaves the store
// at the window head; the load issues behind it and is satisfied by
// forwarding from that head store.
func TestEdgeForwardFromHeadStore(t *testing.T) {
	c := mustNew(config.Base(), &headStoreSource{})
	hitLat := uint64(c.cfg.L1D.HitLatencyCycles)
	var waiting []int // window slots holding unissued loads before the step
	stepUntil(t, c, 500, "a load forwarded from the head store", func() bool {
		defer func() {
			waiting = waiting[:0]
			for k := 0; k < c.winCount; k++ {
				idx := (c.winHead + k) % len(c.win)
				if e := &c.win[idx]; e.op == trace.Load && e.finish == farFuture {
					waiting = append(waiting, idx)
				}
			}
		}()
		if c.winCount == 0 || c.win[c.winHead].op != trace.Store {
			return false
		}
		head := &c.win[c.winHead]
		for _, idx := range waiting {
			e := &c.win[idx]
			if e.finish != farFuture && e.seq > head.seq && e.addr&^7 == head.addr&^7 &&
				e.finish == c.cycle-1+hitLat {
				return true
			}
		}
		return false
	})

	c = mustNew(config.Base(), &headStoreSource{})
	c.Run(600)
	want := pinned{
		Cycles: 4403, Retired: 3000,
		Activity: [floorplan.NumStructures]float64{
			0.08744038155802862, 0, 0.07336718471172253, 0.07582898024074494,
			0, 0.03808009690362631, 0.226890756302521, 0,
			0.22853736089030208, 0.02180331592096298, 0.226890756302521,
		},
		WindowOccupancy: 20.515103338632752,
	}
	if got := pin(c.Run(3_000)); !samePin(got, want) {
		t.Fatalf("head-store forwarding run:\n got %#v\nwant %#v", got, want)
	}
}
