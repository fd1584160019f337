package floorplan

import (
	"math"
	"strings"
	"testing"
)

func TestR10000LikeValidates(t *testing.T) {
	fp := R10000Like()
	if err := fp.Validate(); err != nil {
		t.Fatalf("default floorplan invalid: %v", err)
	}
}

func TestAreasMatchPaper(t *testing.T) {
	fp := R10000Like()
	// The paper's core is 4.5mm x 4.5mm = 20.25 mm^2 at 65nm (Table 1).
	if got := fp.TotalAreaMM2(); math.Abs(got-20.25) > 1e-9 {
		t.Fatalf("total area = %v, want 20.25", got)
	}
	var fracSum float64
	for s := Structure(0); s < NumStructures; s++ {
		a := fp.AreaMM2(s)
		if a <= 0 {
			t.Errorf("%v has non-positive area", s)
		}
		fracSum += fp.AreaFraction(s)
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Fatalf("area fractions sum to %v", fracSum)
	}
}

func TestStructureString(t *testing.T) {
	if Fetch.String() != "Fetch" || L1D.String() != "L1D" {
		t.Fatalf("structure names broken: %v %v", Fetch, L1D)
	}
	if !strings.Contains(Structure(99).String(), "99") {
		t.Fatalf("out-of-range structure name: %v", Structure(99))
	}
}

// TestStructuresList checks the structure enumeration: every index in
// [0, NumStructures) has its own name.
func TestStructuresList(t *testing.T) {
	seen := map[string]Structure{}
	for s := Structure(0); s < NumStructures; s++ {
		name := s.String()
		if strings.HasPrefix(name, "Structure(") {
			t.Fatalf("structure %d has no name", int(s))
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("structures %d and %d are both named %q", int(prev), int(s), name)
		}
		seen[name] = s
	}
}

// The adjacency tests below read the paper's single core, the one-core
// die.

func TestAdjacencySymmetricAndPositive(t *testing.T) {
	adj := MustNewDie(R10000Like(), 1).Adjacencies()
	if len(adj) == 0 {
		t.Fatal("no adjacencies found")
	}
	seen := map[[2]Structure]bool{}
	for _, a := range adj {
		if a.CoreA != 0 || a.CoreB != 0 {
			t.Errorf("one-core adjacency names another core: %+v", a)
		}
		if a.A == a.B {
			t.Errorf("self adjacency %v", a)
		}
		if a.SharedMM <= 0 {
			t.Errorf("non-positive shared edge: %+v", a)
		}
		if a.CenterDist <= 0 {
			t.Errorf("non-positive centre distance: %+v", a)
		}
		key := [2]Structure{a.A, a.B}
		if seen[key] {
			t.Errorf("duplicate adjacency %v-%v", a.A, a.B)
		}
		seen[key] = true
	}
}

func TestEveryBlockHasNeighbour(t *testing.T) {
	deg := map[Structure]int{}
	for _, a := range MustNewDie(R10000Like(), 1).Adjacencies() {
		deg[a.A]++
		deg[a.B]++
	}
	for s := Structure(0); s < NumStructures; s++ {
		if deg[s] == 0 {
			t.Errorf("%v has no neighbours — lateral heat path missing", s)
		}
	}
}

func TestKnownAdjacencies(t *testing.T) {
	want := map[[2]Structure]bool{
		{L1I, Fetch}:   true, // side by side in the top band
		{Fetch, BPred}: true,
		{IntALU, AGU}:  true,
		{AGU, FPU}:     true,
	}
	found := map[[2]Structure]bool{}
	for _, a := range MustNewDie(R10000Like(), 1).Adjacencies() {
		found[[2]Structure{a.A, a.B}] = true
		found[[2]Structure{a.B, a.A}] = true
	}
	for k := range want {
		if !found[k] {
			t.Errorf("expected adjacency %v-%v missing", k[0], k[1])
		}
	}
	// L1D spans the bottom; the whole execution band must touch it.
	for _, s := range []Structure{IntALU, AGU, FPU} {
		if !found[[2]Structure{s, L1D}] {
			t.Errorf("expected %v adjacent to L1D", s)
		}
	}
}

func TestSharedEdge(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{1, 0, 2, 1}, 1},         // full right edge
		{Rect{1, 0.5, 2, 2}, 0.5},     // partial right edge
		{Rect{0, 1, 1, 2}, 1},         // full top edge
		{Rect{1, 1, 2, 2}, 0},         // corner touch only
		{Rect{2, 0, 3, 1}, 0},         // disjoint
		{Rect{0.25, 1, 0.75, 2}, 0.5}, // partial top edge
	}
	for _, c := range cases {
		if got := sharedEdge(a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("sharedEdge(%+v) = %v, want %v", c.b, got, c.want)
		}
		if got := sharedEdge(c.b, a); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("sharedEdge reversed (%+v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	fp := R10000Like()
	fp.Blocks[Fetch].Rect = Rect{0, 3.2, 2.5, 4.5} // now overlaps L1I
	if err := fp.Validate(); err == nil {
		t.Fatal("Validate missed an overlap")
	}
}

func TestValidateCatchesOutOfDie(t *testing.T) {
	fp := R10000Like()
	fp.Blocks[BPred].Rect = Rect{3.4, 3.2, 5.0, 4.5}
	if err := fp.Validate(); err == nil {
		t.Fatal("Validate missed an out-of-die block")
	}
}

func TestValidateCatchesAreaGap(t *testing.T) {
	fp := R10000Like()
	fp.Blocks[BPred].Rect = Rect{3.4, 3.2, 4.4, 4.5} // leaves a sliver
	if err := fp.Validate(); err == nil {
		t.Fatal("Validate missed an area gap")
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{1, 2, 3, 6}
	if r.Width() != 2 || r.Height() != 4 || r.AreaMM2() != 8 {
		t.Fatalf("rect helpers broken: %+v", r)
	}
	if r.CenterX() != 2 || r.CenterY() != 4 {
		t.Fatalf("rect centre broken: %v %v", r.CenterX(), r.CenterY())
	}
}
