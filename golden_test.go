package ramp_test

// Golden regression suite: renders the Table/Figure outputs that the
// ramptables and drmexplore binaries produce (quick options, fixed seed,
// coarse DVS grid) and byte-compares them against checked-in snapshots
// under results/golden/. Any change to the simulator, power, thermal or
// RAMP models that shifts a reported number — even in the last printed
// digit — fails here and forces a deliberate snapshot refresh:
//
//	go test -run TestGolden -update ./...
//	git diff results/golden/   # review every changed number
//
// The snapshots are generated with exp.QuickOptions so the suite stays
// fast enough for every CI run; full-length outputs live in results/.
import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/fleet"
	"ramp/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under results/golden/")

// goldenFreqStepHz keeps DVS sweeps small (7 points across 2.5-5 GHz)
// so the figure3 snapshot regenerates in seconds.
const goldenFreqStepHz = 0.5e9

type goldenCase struct {
	file string
	// render writes one snapshot into buf using env (a fresh
	// QuickOptions env per render; the obs golden suite passes an
	// instrumented one to prove observation changes no output byte).
	render func(*exp.Env, *bytes.Buffer) error
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"tables_quick.txt", renderTablesQuick},
		{"figure3_quick.txt", renderFigure3Quick},
		{"fleet_quick.txt", renderFleetQuick},
	}
}

// renderTablesQuick is the quick-mode equivalent of `ramptables -quick`:
// Table 1 (configuration), Table 2 (workload characterisation) and
// Figure 1 (the motivating FIT staircase).
func renderTablesQuick(env *exp.Env, buf *bytes.Buffer) error {
	figures.NewTable1(env).Write(buf)
	buf.WriteByte('\n')
	t2, err := figures.Table2(env)
	if err != nil {
		return fmt.Errorf("table 2: %w", err)
	}
	figures.WriteTable2(buf, t2)
	buf.WriteByte('\n')
	f1, err := figures.Figure1(env)
	if err != nil {
		return fmt.Errorf("figure 1: %w", err)
	}
	figures.WriteFigure1(buf, f1)
	return nil
}

// renderFigure3Quick is the quick-mode equivalent of drmexplore's
// Figure 3 lane: Arch vs DVS vs ArchDVS for bzip2 on a coarse DVS grid.
func renderFigure3Quick(env *exp.Env, buf *bytes.Buffer) error {
	app := trace.Bzip2()
	rows, err := figures.Figure3(env, app, goldenFreqStepHz)
	if err != nil {
		return fmt.Errorf("figure 3: %w", err)
	}
	figures.WriteFigure3(buf, app.Name, rows)
	return nil
}

// renderFleetQuick is a small fleet Monte Carlo survival table: two
// qualification policies over MP3dec with checkpointing and repair
// scenarios. The fleet engine is bitwise-deterministic at any worker
// count, so the snapshot pins both the sampling layer and the table
// formatting.
func renderFleetQuick(env *exp.Env, buf *bytes.Buffer) error {
	app := trace.MP3dec()
	res, err := env.Evaluate(app, env.Base, env.Qualification(400))
	if err != nil {
		return fmt.Errorf("fleet evaluate: %w", err)
	}
	var policies []fleet.Policy
	for _, tq := range []float64{400, 370} {
		a, err := env.Requalify(res, env.Qualification(tq))
		if err != nil {
			return fmt.Errorf("fleet requalify %g: %w", tq, err)
		}
		policies = append(policies, fleet.Policy{Name: fmt.Sprintf("tq%gK", tq), Assessment: a})
	}
	cfg := fleet.DefaultConfig(100_000, 1)
	cfg.Scenarios = []fleet.Scenario{
		fleet.NominalScenario(),
		{Name: "checkpoint", Duty: 0.8},
		{Name: "repair", Duty: 1, Spares: 2},
	}
	eng, err := fleet.New(cfg, policies)
	if err != nil {
		return fmt.Errorf("fleet new: %w", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		return fmt.Errorf("fleet run: %w", err)
	}
	rep.WriteTable(buf)
	return nil
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.render(exp.NewEnv(exp.QuickOptions()), &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("results", "golden", tc.file)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestGolden -update ./...` to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s drifted from golden snapshot:\n%s\nif the change is intended, refresh with `go test -run TestGolden -update ./...` and review the diff",
					path, diffFirstLine(want, buf.Bytes()))
			}
		})
	}
}

// TestGoldenDeterministic renders each snapshot twice in-process and
// requires byte-identical output: parallel EvaluateAllCtx, cache order and
// float formatting must not introduce run-to-run jitter, otherwise the
// byte-compare above would flake.
func TestGoldenDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering twice is slow; covered by the full lane")
	}
	for _, tc := range goldenCases() {
		t.Run(tc.file, func(t *testing.T) {
			var a, b bytes.Buffer
			if err := tc.render(exp.NewEnv(exp.QuickOptions()), &a); err != nil {
				t.Fatal(err)
			}
			if err := tc.render(exp.NewEnv(exp.QuickOptions()), &b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("two renders differ:\n%s", diffFirstLine(a.Bytes(), b.Bytes()))
			}
		})
	}
}

// diffFirstLine reports the first line where got differs from want, with
// one line of context — enough to locate a drift without a diff tool.
func diffFirstLine(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d", len(wl), len(gl))
}
