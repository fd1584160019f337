package figures

import (
	"context"
	"fmt"
	"io"

	"ramp/internal/exp"
	"ramp/internal/sched"
)

// ManycoreRow is one (die size, policy) outcome at iso-performance.
type ManycoreRow struct {
	NCores int
	Policy sched.Policy

	LifetimeYears float64 // MTTF to first core failure
	ChipFIT       float64
	ChipMTTFYears float64
	AvgW          float64
	MaxTempK      float64
	BIPS          float64
	Migrations    int
}

// ManycoreTable is the lifetime-at-iso-performance policy comparison:
// every die size × policy, against the paper's single-core DRM
// baseline.
type ManycoreTable struct {
	TqualK      float64
	BaselineFIT float64 // single-core workload FIT (Section 3.6)
	BaselineYrs float64
	Rows        []ManycoreRow
}

// ManycoreSweep runs the three scheduling policies over the given die
// sizes at one qualification temperature, with epochs scheduling
// epochs per die size (0 keeps the default of twice the evaluation
// epochs). Within a die size the policies share one Simulator —
// identical workload groups, identical epochs — so lifetime is compared
// at identical performance; across die sizes the suite evaluations come
// from the env cache, so the whole sweep simulates each application
// once. Cancellation is checked per die size, per policy and per
// scheduling epoch.
func ManycoreSweep(ctx context.Context, e *exp.Env, nCores []int, tqualK float64, epochs int) (ManycoreTable, error) {
	ctx, span := figSpan(ctx, e, "figures.manycore")
	defer span.End()
	t := ManycoreTable{TqualK: tqualK}
	var err error
	t.BaselineFIT, t.BaselineYrs, err = sched.SingleCoreDRM(ctx, e, tqualK)
	if err != nil {
		return ManycoreTable{}, err
	}
	for _, n := range nCores {
		cfg := sched.DefaultConfig(n, e.Opts)
		cfg.TqualK = tqualK
		if epochs > 0 {
			cfg.Epochs = epochs
		}
		sim, err := sched.NewCtx(ctx, e, cfg)
		if err != nil {
			return ManycoreTable{}, fmt.Errorf("N=%d: %w", n, err)
		}
		for _, p := range sched.Policies() {
			r, err := sim.RunCtx(ctx, p)
			if err != nil {
				return ManycoreTable{}, fmt.Errorf("N=%d %v: %w", n, p, err)
			}
			t.Rows = append(t.Rows, ManycoreRow{
				NCores:        n,
				Policy:        p,
				LifetimeYears: r.LifetimeYears,
				ChipFIT:       r.ChipFIT,
				ChipMTTFYears: r.ChipMTTFYears,
				AvgW:          r.AvgW,
				MaxTempK:      r.MaxTempK,
				BIPS:          r.BIPS,
				Migrations:    r.Migrations,
			})
		}
	}
	return t, nil
}

// Write prints the policy-comparison table.
func (t ManycoreTable) Write(w io.Writer) {
	fmt.Fprintf(w, "Manycore lifetime at iso-performance (Tqual=%.0fK)\n", t.TqualK)
	fmt.Fprintf(w, "  single-core DRM baseline: %.0f FIT, MTTF %.1f years\n", t.BaselineFIT, t.BaselineYrs)
	fmt.Fprintf(w, "  lifetime = years to first core failure; BIPS identical across policies per N\n\n")
	fmt.Fprintf(w, "  %6s %-10s %12s %10s %10s %8s %8s %8s %6s\n",
		"cores", "policy", "lifetime(y)", "chipMTTF", "chipFIT", "avgW", "maxT(K)", "BIPS", "moves")
	prev := -1
	for _, r := range t.Rows {
		if prev != -1 && r.NCores != prev {
			fmt.Fprintln(w)
		}
		prev = r.NCores
		fmt.Fprintf(w, "  %6d %-10s %12.2f %10.2f %10.0f %8.1f %8.1f %8.3f %6d\n",
			r.NCores, r.Policy, r.LifetimeYears, r.ChipMTTFYears, r.ChipFIT,
			r.AvgW, r.MaxTempK, r.BIPS, r.Migrations)
	}
}
