package fleet_test

import (
	"context"
	"fmt"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/fleet"
)

// TestWarrantyReturnsRiseAsTqualFalls encodes the paper's qualification
// budget (§3.7) at fleet scale: qualifying the same run at a lower
// T_qual leaves less FIT headroom, so under common random numbers no
// chip lives longer and neither warranty return may fall, for any app
// or failure-response scenario.
func TestWarrantyReturnsRiseAsTqualFalls(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the suite and runs nine fleets")
	}
	tquals := []float64{400, 385, 370, 355, 345, 335, 325} // falling
	env := exp.NewEnv(exp.QuickOptions())
	runs, err := env.EvaluateSuite(env.Qualification(tquals[0]))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.DefaultConfig(20_000, 7)
	cfg.Scenarios = []fleet.Scenario{
		fleet.NominalScenario(),
		{Name: "checkpoint", Duty: 0.8},
		{Name: "repair", Duty: 1, Spares: 2},
	}
	for _, run := range runs {
		policies := make([]fleet.Policy, len(tquals))
		for i, tq := range tquals {
			a, err := env.Requalify(run, env.Qualification(tq))
			if err != nil {
				t.Fatal(err)
			}
			policies[i] = fleet.Policy{Name: fmt.Sprintf("tq%gK", tq), Assessment: a}
		}
		eng, err := fleet.New(cfg, policies)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Results are policy-major: row p*S+s is policy p, scenario s.
		nscen := len(cfg.Scenarios)
		for s, sc := range cfg.Scenarios {
			for p := 1; p < len(tquals); p++ {
				prev, cur := rep.Results[(p-1)*nscen+s], rep.Results[p*nscen+s]
				if cur.Return7 < prev.Return7 || cur.Return11 < prev.Return11 {
					t.Errorf("%s %s: returns fell from %s (7y %.4f, 11y %.4f) to %s (7y %.4f, 11y %.4f)",
						run.App, sc.Name, prev.Policy, prev.Return7, prev.Return11,
						cur.Policy, cur.Return7, cur.Return11)
				}
			}
		}
		first, last := rep.Results[0], rep.Results[(len(tquals)-1)*nscen]
		if last.Return11 <= first.Return11 {
			t.Errorf("%s nominal: 11-year return %.4f at %s, not above %.4f at %s",
				run.App, last.Return11, last.Policy, first.Return11, first.Policy)
		}
	}
}
