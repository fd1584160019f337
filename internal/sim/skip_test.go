package sim

import (
	"testing"

	"ramp/internal/config"
	"ramp/internal/trace"
)

// runStepping is Run without the idle-cycle skip: every cycle runs all
// four stages. It is the reference the skipping loop must match.
func runStepping(c *Core, n uint64) Result {
	start := c.cycle
	target := c.retiredTotal + n
	c.snapshotDiagBases()
	for c.retiredTotal < target {
		c.retire()
		c.issue()
		c.dispatch()
		c.fetch()
		c.c.occupancySum += uint64(c.winCount)
		c.cycle++
	}
	return c.makeResult(start)
}

// missAndDivideSource repeats a load that misses to memory, two
// independent integer divides and two independent ALU ops. On a machine
// with two integer units the miss holds the window head while the
// divides occupy both units and the ALU ops wait for one to free up.
type missAndDivideSource struct {
	n    int
	miss stridedMissSource
}

func (s *missAndDivideSource) Next(out *trace.Instr) {
	switch s.n % 5 {
	case 0:
		s.miss.Next(out)
	case 1, 2:
		*out = trace.Instr{Op: trace.IntDiv, PC: 1<<22 + uint64(s.n%1024)*4}
	default:
		*out = trace.Instr{Op: trace.IntAlu, PC: 1<<22 + uint64(s.n%1024)*4}
	}
	s.n++
}

// TestSkipMatchesStepping runs the same sources through Run and through
// the stepping reference. The configurations and scripted sources make
// each event the skip waits for the binding one somewhere: long integer
// latencies (a mispredicted branch resolves cycles after it issues), a
// tiny MSHR file, and a narrow, small-window machine whose integer units
// are all held by divides while a miss sits at the window head.
func TestSkipMatchesStepping(t *testing.T) {
	slow := config.Base()
	slow.Name = "slow-alu"
	slow.IntAddLat, slow.IntMulLat, slow.FPLat = 3, 9, 6
	fewMSHRs := config.Base()
	fewMSHRs.Name = "few-mshrs"
	fewMSHRs.L1D.MSHRs, fewMSHRs.L1I.MSHRs = 2, 1
	archs := config.ArchConfigs()
	procs := []config.Proc{config.Base(), slow, fewMSHRs, archs[len(archs)-1]}

	sources := []struct {
		name string
		make func() Source
	}{
		{"bzip2", func() Source { return mustGenerator(trace.Bzip2(), 3) }},
		{"art", func() Source { return mustGenerator(trace.Art(), 3) }},
		{"mp3dec", func() Source { return mustGenerator(trace.MP3dec(), 3) }},
		{"misses", func() Source { return &stridedMissSource{} }},
		{"dividers", func() Source { return newScript([]trace.Instr{{Op: trace.IntDiv}, {Op: trace.FPDiv}}) }},
		{"miss-and-divides", func() Source { return &missAndDivideSource{} }},
		{"cold-code", func() Source { return &coldCodeSource{} }},
		{"head-store", func() Source { return &headStoreSource{} }},
	}
	for _, proc := range procs {
		for _, src := range sources {
			skip, step := mustNew(proc, src.make()), mustNew(proc, src.make())
			for epoch, n := range []uint64{2_000, 5_000, 5_000} {
				if testing.Short() {
					n /= 4 // the race lane: stepping through idle cycles is slow there
				}
				if got, want := skip.Run(n), runStepping(step, n); got != want {
					t.Fatalf("%s on %s, epoch %d: skipping loop diverged from stepping:\n got %+v\nwant %+v",
						src.name, proc.Name, epoch, got, want)
				}
			}
		}
	}
}
