package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/trace"
)

func quickSim(t *testing.T, n int) *Simulator {
	t.Helper()
	env := exp.NewEnv(exp.QuickOptions())
	s, err := New(env, DefaultConfig(n, env.Opts))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGroupsPartitionSuite checks the fixed grouping: min(N, 9) groups,
// every application in exactly one group, identical across rebuilds.
func TestGroupsPartitionSuite(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16} {
		s := quickSim(t, n)
		want := min(n, len(trace.Apps()))
		if len(s.groups) != want {
			t.Fatalf("N=%d: %d groups, want %d", n, len(s.groups), want)
		}
		seen := make([]int, len(trace.Apps()))
		for _, apps := range s.groups {
			if len(apps) == 0 {
				t.Fatalf("N=%d: empty group", n)
			}
			for _, a := range apps {
				seen[a]++
			}
		}
		for a, c := range seen {
			if c != 1 {
				t.Fatalf("N=%d: app %d appears %d times", n, a, c)
			}
		}
	}
}

// TestRunDeterminism pins the acceptance criterion that the policy
// table is deterministic: two independent simulators produce bitwise
// identical lifetimes, migration counts and wear vectors.
func TestRunDeterminism(t *testing.T) {
	a := quickSim(t, 4)
	b := quickSim(t, 4)
	for _, p := range Policies() {
		ra, err := a.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if ra.LifetimeYears != rb.LifetimeYears || ra.ChipFIT != rb.ChipFIT ||
			ra.Migrations != rb.Migrations || ra.AvgW != rb.AvgW {
			t.Fatalf("%v: non-deterministic result:\n %+v\n %+v", p, ra, rb)
		}
		for k := range ra.CoreWear {
			if ra.CoreWear[k] != rb.CoreWear[k] {
				t.Fatalf("%v: core %d wear differs across runs", p, k)
			}
		}
	}
}

// TestIsoPerformance checks that the policies are compared at identical
// performance: same total time, same BIPS, bitwise.
func TestIsoPerformance(t *testing.T) {
	s := quickSim(t, 4)
	var first Result
	for i, p := range Policies() {
		r, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
			continue
		}
		if r.TimeSec != first.TimeSec || r.BIPS != first.BIPS {
			t.Fatalf("%v: time/BIPS (%.9g, %.9g) differ from %v (%.9g, %.9g)",
				p, r.TimeSec, r.BIPS, first.Policy, first.TimeSec, first.BIPS)
		}
	}
}

// TestWearLevelBeatsStatic pins the headline acceptance criterion:
// wear-leveling strictly beats static assignment on lifetime at
// iso-performance for N ≥ 4.
func TestWearLevelBeatsStatic(t *testing.T) {
	for _, n := range []int{4, 8} {
		s := quickSim(t, n)
		st, err := s.Run(Static)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := s.Run(WearLevel)
		if err != nil {
			t.Fatal(err)
		}
		if !(wl.LifetimeYears > st.LifetimeYears) {
			t.Fatalf("N=%d: wearlevel lifetime %.4f y not strictly above static %.4f y",
				n, wl.LifetimeYears, st.LifetimeYears)
		}
		if st.Migrations != 0 {
			t.Fatalf("N=%d: static migrated %d times", n, st.Migrations)
		}
		if wl.Migrations == 0 {
			t.Fatalf("N=%d: wear-leveling never migrated", n)
		}
		// Leveling means a tighter wear spread than static pinning.
		spread := func(w []float64) float64 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range w {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			return hi - lo
		}
		if !(spread(wl.CoreWear) < spread(st.CoreWear)) {
			t.Fatalf("N=%d: wear spread not reduced: wearlevel %.4g, static %.4g",
				n, spread(wl.CoreWear), spread(st.CoreWear))
		}
	}
}

// TestN1PoliciesCoincide checks the single-core special case: with one
// core and one group there is nothing to schedule, so every policy
// returns the identical result and never migrates.
func TestN1PoliciesCoincide(t *testing.T) {
	s := quickSim(t, 1)
	base, err := s.Run(Static)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{Coolest, WearLevel} {
		r, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.LifetimeYears != base.LifetimeYears || r.ChipFIT != base.ChipFIT ||
			r.Migrations != 0 || r.AvgW != base.AvgW {
			t.Fatalf("%v on N=1 differs from static: %+v vs %+v", p, r, base)
		}
	}
}

// TestSingleCoreDRM sanity-checks the paper's single-core baseline:
// positive workload FIT, MTTF in a plausible range.
func TestSingleCoreDRM(t *testing.T) {
	env := exp.NewEnv(exp.QuickOptions())
	fit, years, err := SingleCoreDRM(context.Background(), env, 400)
	if err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || years <= 0 {
		t.Fatalf("baseline FIT %.1f / %.2f years not positive", fit, years)
	}
	if years < 1 || years > 500 {
		t.Fatalf("baseline MTTF %.2f years implausible", years)
	}
}

// TestDieSOFRInvariant checks the paper's sum-of-failure-rates model
// (Section 3.5) on scheduled dies: the chip is a series system of its
// cores and each core of its structures, and every failure mechanism
// has a constant rate, so rates add. Over seeded draws of die size,
// policy, T_qual and run length, the chip FIT is the sum of the cores'
// total FITs, each core's total is the sum of its structure ×
// mechanism FITs, no FIT is negative, the worst core attains the
// shortest core MTTF, and the chip's MTTF is no longer than that.
func TestDieSOFRInvariant(t *testing.T) {
	env := sharedEnv()
	rng := rand.New(rand.NewSource(35))
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(16)
		p := Policy(rng.Intn(int(NumPolicies)))
		tq := 330 + 70*rng.Float64()
		epochs := 1 + rng.Intn(24)
		name := fmt.Sprintf("N=%d %v Tqual=%.3f epochs=%d", n, p, tq, epochs)
		r, err := newSim(t, env, n, epochs, tq).Run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := r.Assessment
		if len(a.Cores) != n {
			t.Fatalf("%s: %d core assessments", name, len(a.Cores))
		}
		var chip float64
		for k, c := range a.Cores {
			var sum float64
			for s := range c.FIT {
				for m, fit := range c.FIT[s] {
					if !(fit >= 0) || math.IsInf(fit, 0) {
						t.Fatalf("%s: core %d FIT[%d][%d] = %v", name, k, s, m, fit)
					}
					sum += fit
				}
			}
			if !near(c.TotalFIT, sum) {
				t.Fatalf("%s: core %d TotalFIT %v, structure × mechanism sum %v", name, k, c.TotalFIT, sum)
			}
			chip += c.TotalFIT
			if c.MTTFYears < a.MinCoreMTTFYears {
				t.Fatalf("%s: core %d MTTF %v y below the minimum %v y", name, k, c.MTTFYears, a.MinCoreMTTFYears)
			}
		}
		if !near(a.ChipFIT, chip) || r.ChipFIT != a.ChipFIT {
			t.Fatalf("%s: ChipFIT %v (result %v), sum of core totals %v", name, a.ChipFIT, r.ChipFIT, chip)
		}
		if a.Cores[a.WorstCore].MTTFYears != a.MinCoreMTTFYears || r.LifetimeYears != a.MinCoreMTTFYears {
			t.Fatalf("%s: worst core %d MTTF %v y, minimum %v y, lifetime %v y",
				name, a.WorstCore, a.Cores[a.WorstCore].MTTFYears, a.MinCoreMTTFYears, r.LifetimeYears)
		}
		if !(a.ChipMTTFYears <= a.MinCoreMTTFYears) {
			t.Fatalf("%s: chip MTTF %v y above the worst core's %v y", name, a.ChipMTTFYears, a.MinCoreMTTFYears)
		}
	}
}

// TestAssignBreaksRankTiesByCore pins assign's tie rule on a tied rank
// pattern: groups land on cores in (rank, core index) order. Only ties
// between more than 12 cores can tell a stable sort from an unstable
// one: Go sorts 12 or fewer elements by insertion sort, which is
// stable, and at the first epoch of a pass every rank is 0, where both
// sorts keep the input order.
func TestAssignBreaksRankTiesByCore(t *testing.T) {
	const n = 16
	s := newSim(t, sharedEnv(), n, 1, 400)
	st := newRunState(s)
	st.reset()
	for c := range st.prevMax {
		st.prevMax[c] = 350 + float64(1-c%2) // ranks 1, 0, 1, 0, ...
	}
	s.assign(Coolest, 0, st, nil)
	var want []int // odd cores (rank 0), then even cores (rank 1)
	for c := 1; c < n; c += 2 {
		want = append(want, c)
	}
	for c := 0; c < n; c += 2 {
		want = append(want, c)
	}
	for i, grp := range s.hotFirst[0] {
		if got := st.next[grp]; got != want[i] {
			t.Fatalf("group %d (%d-th hottest) on core %d, want core %d: ties must break by core index", grp, i, got, want[i])
		}
	}
	for i, c := range st.cores {
		if c != want[i] {
			t.Fatalf("rank order %v, want %v", st.cores, want)
		}
	}
}
