package drm

import (
	"math/rand"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/trace"
)

// tqualGrid is a seeded dense qualification grid: 150 points 0.5 K
// apart, ascending from a seeded offset in [325, 325.5) K.
func tqualGrid(seed int64) []float64 {
	off := 0.5 * rand.New(rand.NewSource(seed)).Float64()
	out := make([]float64, 150)
	for i := range out {
		out[i] = 325 + off + 0.5*float64(i)
	}
	return out
}

// TestTqualGridInvariants checks the paper's qualification claims on a
// dense T_qual grid for bzip2 and twolf in all three adaptation spaces
// on the 0.5 GHz DVS grid.
func TestTqualGridInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweeps; skipped in -short (race lane)")
	}
	o := quickOracle()
	grid := tqualGrid(11)
	spaces := []Adaptation{Arch, DVS, ArchDVS}
	for _, app := range []trace.Profile{trace.Bzip2(), trace.Twolf()} {
		choices := make(map[Adaptation][]Choice)
		for _, space := range spaces {
			sweep, err := o.Sweep(app, space)
			if err != nil {
				t.Fatal(err)
			}
			label := app.Name + "/" + space.String()

			// Section 3.7: a cheaper qualification (lower T_qual) leaves
			// the same run with strictly less budget headroom, so every
			// candidate's FIT strictly rises as T_qual falls.
			for _, r := range append([]exp.Result{sweep.Base}, sweep.Candidates...) {
				prev := -1.0
				for k := len(grid) - 1; k >= 0; k-- {
					a, err := o.Env.Requalify(r, o.Env.Qualification(grid[k]))
					if err != nil {
						t.Fatal(err)
					}
					if a.TotalFIT <= prev {
						t.Fatalf("%s %s: FIT %v at %v K not above %v at %v K", label, r.Proc.Name, a.TotalFIT, grid[k], prev, grid[k+1])
					}
					prev = a.TotalFIT
				}
			}

			// Sections 5 and 7: the oracle's performance and feasibility
			// never rise as T_qual falls.
			cs := make([]Choice, len(grid))
			for k, tq := range grid {
				if cs[k], err = sweep.Select(o.Env, o.Env.Qualification(tq)); err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					continue
				}
				if cs[k].RelPerf < cs[k-1].RelPerf {
					t.Fatalf("%s: RelPerf %v at %v K below %v at %v K", label, cs[k].RelPerf, tq, cs[k-1].RelPerf, grid[k-1])
				}
				if cs[k-1].Feasible && !cs[k].Feasible {
					t.Fatalf("%s: feasible at %v K but not at %v K", label, grid[k-1], tq)
				}
			}
			choices[space] = cs
		}

		// Section 7.3: ArchDVS's candidates are a superset of Arch's and
		// DVS's, so wherever either is feasible ArchDVS is too, and it
		// performs at least as well.
		both := choices[ArchDVS]
		for _, sub := range []Adaptation{Arch, DVS} {
			for k, c := range choices[sub] {
				if c.Feasible && !(both[k].Feasible && both[k].RelPerf >= c.RelPerf) {
					t.Fatalf("%s at %v K: ArchDVS (%v, feasible %v) below %v (%v)", app.Name, grid[k], both[k].RelPerf, both[k].Feasible, sub, c.RelPerf)
				}
			}
		}
	}
}
