package figures

import (
	"strings"
	"testing"

	"ramp/internal/exp"
)

func TestScalingStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	rows, err := ScalingStudy(exp.QuickOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("ladder has %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.NodeNM >= prev.NodeNM {
			t.Fatal("ladder not ordered old->new")
		}
		if cur.DieMM2 >= prev.DieMM2 {
			t.Fatal("die not shrinking")
		}
		if cur.DensityW <= prev.DensityW {
			t.Fatalf("power density not rising with scaling: %v -> %v", prev.DensityW, cur.DensityW)
		}
		if cur.PerfBIPS <= prev.PerfBIPS {
			t.Fatalf("performance not rising with scaling: %v -> %v", prev.PerfBIPS, cur.PerfBIPS)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.NodeNM != 65 || first.NodeNM != 180 {
		t.Fatalf("ladder endpoints %v %v", first.NodeNM, last.NodeNM)
	}
	// Per-core FIT improves with the shrink; per constant-area die the
	// transistor-count growth must reverse the trend by 65 nm (the
	// Section 1.2 argument).
	if last.AvgFIT >= first.AvgFIT {
		t.Fatalf("per-core FIT did not improve: %v -> %v", first.AvgFIT, last.AvgFIT)
	}
	if last.FullDieFIT <= rows[2].FullDieFIT {
		t.Fatalf("die FIT did not turn upward at the newest node: %v -> %v",
			rows[2].FullDieFIT, last.FullDieFIT)
	}
	var sb strings.Builder
	WriteScaling(&sb, rows)
	if !strings.Contains(sb.String(), "65nm") {
		t.Fatal("output missing nodes")
	}
}
