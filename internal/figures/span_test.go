package figures

import (
	"strings"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

// TestFigureSpansParentTheirWork: every drm.* and exp.evaluate span a
// figure driver starts sits in the subtree of that figure's span, so a
// trace summary counts the workers' time under the figure rather than
// beside it.
func TestFigureSpansParentTheirWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 1 and a Figure 3 sweep")
	}
	tr := obs.NewTracer()
	env := exp.NewEnv(exp.QuickOptions()).Instrument(tr, nil)
	if _, err := Figure1(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure3(env, trace.Bzip2(), 1.25e9); err != nil {
		t.Fatal(err)
	}

	events := tr.Events()
	parent := make(map[uint64]uint64, len(events))
	name := make(map[uint64]string, len(events))
	for _, ev := range events {
		parent[ev.ID], name[ev.ID] = ev.Parent, ev.Name
	}
	under := map[string]int{} // figure span name → work spans beneath it
	for _, ev := range events {
		if ev.Name != "exp.evaluate" && !strings.HasPrefix(ev.Name, "drm.") {
			continue
		}
		root := ev.ID
		for parent[root] != 0 {
			root = parent[root]
		}
		if !strings.HasPrefix(name[root], "figures.") {
			t.Errorf("%s span %d sits under root %q, not a figure span", ev.Name, ev.ID, name[root])
			continue
		}
		under[name[root]]++
	}
	if under["figures.figure1"] == 0 || under["figures.figure3"] == 0 {
		t.Errorf("work spans per figure: %v, want some under each", under)
	}
}
