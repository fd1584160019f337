package figures

import (
	"context"
	"strings"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/sched"
)

// TestManycoreSweep smoke-tests the driver on tiny die sizes: one row
// per (N, policy), a positive baseline, N=1 policies coinciding, and a
// rendered table mentioning every policy.
func TestManycoreSweep(t *testing.T) {
	env := exp.NewEnv(exp.QuickOptions())
	table, err := ManycoreSweep(context.Background(), env, []int{1, 2}, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2*len(sched.Policies()) {
		t.Fatalf("got %d rows, want %d", len(table.Rows), 2*len(sched.Policies()))
	}
	if table.BaselineFIT <= 0 || table.BaselineYrs <= 0 {
		t.Fatalf("bad baseline: %+v", table)
	}
	n1 := table.Rows[:len(sched.Policies())]
	for _, r := range n1[1:] {
		if r.LifetimeYears != n1[0].LifetimeYears || r.BIPS != n1[0].BIPS {
			t.Fatalf("N=1 policies differ: %+v vs %+v", r, n1[0])
		}
	}
	var sb strings.Builder
	table.Write(&sb)
	out := sb.String()
	for _, p := range sched.Policies() {
		if !strings.Contains(out, p.String()) {
			t.Fatalf("rendered table missing policy %v:\n%s", p, out)
		}
	}
}
