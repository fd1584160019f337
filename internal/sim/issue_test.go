package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ramp/internal/config"
	"ramp/internal/trace"
)

// runWindowScan is Run with neither the idle-cycle skip nor the
// candidate bitmap: every cycle runs all four stages, and issue scans
// the whole window oldest first, reading each unissued entry's
// readiness straight from the completion history.
func runWindowScan(c *Core, n uint64) Result {
	start := c.cycle
	target := c.retiredTotal + n
	c.snapshotDiagBases()
	for c.retiredTotal < target {
		c.retire()
		scanIssue(c)
		c.dispatch()
		c.fetch()
		c.c.occupancySum += uint64(c.winCount)
		c.cycle++
	}
	return c.makeResult(start)
}

// scanIssue visits every unissued entry (finish == farFuture) from the
// window head on, with issue's exhaustion check and issueOne. The
// candidate bitmap it ignores is still kept by dispatch and complete,
// but nothing here reads it.
func scanIssue(c *Core) {
	s := issueSlots{
		intALU: c.freeUnits(c.intBusyUntil),
		fpu:    c.freeUnits(c.fpBusyUntil),
		agu:    c.cfg.AGUs,
		dPorts: c.cfg.L1D.Ports,
	}
	for k := 0; k < c.winCount; k++ {
		if s.intALU == 0 && s.fpu == 0 && (s.agu == 0 || s.dPorts == 0) {
			return
		}
		e := &c.win[(c.winHead+k)%len(c.win)]
		if e.finish == farFuture && max(c.hist[e.h1], c.hist[e.h2]) <= c.cycle && s.free(e.op) {
			c.issueOne(e, &s)
		}
	}
}

// resultHash is hashResult of r alone.
func resultHash(r Result) uint64 {
	h := fnv.New64a()
	hashResult(h, r)
	return h.Sum64()
}

// scanWindows are the window sizes the scan oracle runs: one full
// bitmap word, two, and the partial last words of 96 and 48 entries.
var scanWindows = []int{128, 96, 48, 16}

// matchScan runs src through Run and through runWindowScan on fresh
// cores and requires every Result bit of every epoch to agree.
func matchScan(t *testing.T, name string, proc config.Proc, src func() Source) {
	t.Helper()
	fast, scan := mustNew(proc, src()), mustNew(proc, src())
	for epoch, n := range []uint64{2_000, 5_000, 5_000} {
		if testing.Short() {
			n /= 4 // the race lane: the scan steps every idle cycle
		}
		got, want := fast.Run(n), runWindowScan(scan, n)
		if resultHash(got) != resultHash(want) {
			t.Fatalf("%s on %s, epoch %d: candidate walk diverged from the window scan:\n got %+v\nwant %+v",
				name, proc.Name, epoch, got, want)
		}
	}
}

// TestIssueMatchesWindowScan holds the candidate walk to a scan of the
// whole window: on the nine applications at each scanWindows size, and
// on scripted streams that reach the cases the waiter lists must get
// right. Those are two operands on one producer, producers far past the
// window, operands whose history slot belongs to a younger in-flight
// instruction (distance histLen - k), distances at or beyond the
// sequence number, saturated dividers, a full MSHR file and a
// zero-latency integer pipeline, where an issue wakes a consumer that
// can issue in the same cycle.
func TestIssueMatchesWindowScan(t *testing.T) {
	for _, w := range scanWindows {
		proc := config.Base().WithArch(w, 0, 0)
		proc.Name = fmt.Sprintf("w%d", w)
		for _, app := range trace.Apps() {
			matchScan(t, app.Name, proc, func() Source { return mustGenerator(app, 1) })
		}
	}

	scripts := []struct {
		name    string
		pattern []trace.Instr
	}{
		{"same-producer", []trace.Instr{
			{Op: trace.IntAlu, Dep1: 1, Dep2: 1},
			{Op: trace.IntMul, Dep1: 2, Dep2: 2},
			{Op: trace.Load, Dep1: 1, Dep2: 1, Addr: 1 << 30},
			{Op: trace.FPOp},
		}},
		{"past-window", []trace.Instr{
			{Op: trace.IntAlu, Dep1: 300},
			{Op: trace.IntMul, Dep1: 1, Dep2: 1000},
			{Op: trace.FPOp, Dep2: 129},
			{Op: trace.IntAlu, Dep1: histLen + 3},
		}},
		{"younger-slot", []trace.Instr{
			{Op: trace.IntAlu, Dep1: histLen - 2},
			{Op: trace.IntMul, Dep1: 1},
			{Op: trace.IntAlu},
			{Op: trace.Load, Dep2: histLen - 1, Addr: 2 << 30},
		}},
		{"beyond-seq", []trace.Instr{
			{Op: trace.IntAlu, Dep1: 60_000, Dep2: 1},
			{Op: trace.FPOp, Dep1: 2, Dep2: 40_000},
			{Op: trace.Store, Dep1: 1, Addr: 3 << 30},
		}},
		{"dividers", []trace.Instr{
			{Op: trace.IntDiv}, {Op: trace.FPDiv},
			{Op: trace.IntAlu, Dep1: 2}, {Op: trace.FPOp, Dep1: 2},
		}},
	}
	sources := []struct {
		name string
		make func() Source
	}{
		{"misses", func() Source { return &stridedMissSource{} }},
		{"miss-chain", func() Source { return &stridedMissSource{dep: 3} }},
		{"miss-and-divides", func() Source { return &missAndDivideSource{} }},
		{"head-store", func() Source { return &headStoreSource{} }},
	}
	for _, sc := range scripts {
		sources = append(sources, struct {
			name string
			make func() Source
		}{sc.name, func() Source { return newScript(sc.pattern) }})
	}

	var procs []config.Proc
	for _, w := range scanWindows {
		p := config.Base().WithArch(w, 2, 1)
		p.Name = fmt.Sprintf("w%d-a2-f1", w)
		procs = append(procs, p)
	}
	fewMSHRs := config.Base().WithArch(48, 0, 0)
	fewMSHRs.Name = "w48-mshr2"
	fewMSHRs.L1D.MSHRs = 2
	zeroLat := config.Base().WithArch(96, 0, 0)
	zeroLat.Name = "w96-zero-latency"
	zeroLat.IntAddLat, zeroLat.IntMulLat = 0, 0
	procs = append(procs, fewMSHRs, zeroLat)

	for _, proc := range procs {
		for _, src := range sources {
			matchScan(t, src.name, proc, src.make)
		}
	}
}
