package floorplan

import (
	"math"
	"testing"
)

func TestDieGridShapes(t *testing.T) {
	base := R10000Like()
	cases := []struct {
		n, rows, cols int
	}{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {3, 1, 3}, {6, 2, 3}, {9, 3, 3},
	}
	for _, c := range cases {
		d, err := NewDie(base, c.n)
		if err != nil {
			t.Fatalf("NewDie(%d): %v", c.n, err)
		}
		if d.Rows != c.rows || d.Cols != c.cols {
			t.Errorf("NewDie(%d): grid %dx%d, want %dx%d", c.n, d.Rows, d.Cols, c.rows, c.cols)
		}
		wantW := float64(c.cols) * base.DieWidthMM
		wantH := float64(c.rows) * base.DieHeightMM
		if d.WidthMM != wantW || d.HeightMM != wantH {
			t.Errorf("NewDie(%d): envelope %gx%g, want %gx%g", c.n, d.WidthMM, d.HeightMM, wantW, wantH)
		}
	}
	if _, err := NewDie(base, 0); err == nil {
		t.Fatal("NewDie(0) should fail")
	}
}

// TestDieN1MatchesBase pins the N=1 special case: the one-core die's
// block areas and rectangles are the base floorplan's own, bit for bit,
// so the paper's single core is exactly the one-core die.
func TestDieN1MatchesBase(t *testing.T) {
	base := R10000Like()
	d := MustNewDie(base, 1)
	for s := Structure(0); s < NumStructures; s++ {
		if d.AreaMM2(0, s) != base.AreaMM2(s) {
			t.Fatalf("N=1 die area for %v differs from base", s)
		}
		if d.BlockRect(0, s) != base.Blocks[s].Rect {
			t.Fatalf("N=1 die rect for %v differs from base", s)
		}
	}
}

// TestDieAreaConservation checks area conservation under tiling: n
// replicated cores occupy exactly n times the base block area, and the
// blocks tile the die envelope exactly.
func TestDieAreaConservation(t *testing.T) {
	base := R10000Like()
	for _, n := range []int{1, 2, 4, 8, 16} {
		d := MustNewDie(base, n)
		var sum float64
		for k := 0; k < n; k++ {
			for s := Structure(0); s < NumStructures; s++ {
				sum += d.BlockRect(k, s).AreaMM2()
			}
		}
		want := float64(n) * base.TotalAreaMM2()
		if diff := math.Abs(sum - want); diff > 1e-6 {
			t.Errorf("N=%d: tiled block area %.9f, want %.9f", n, sum, want)
		}
		if diff := math.Abs(sum - d.WidthMM*d.HeightMM); diff > 1e-6 {
			t.Errorf("N=%d: tiled block area %.9f does not fill envelope %.9f", n, sum, d.WidthMM*d.HeightMM)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("N=%d: Validate: %v", n, err)
		}
	}
}

// TestDieAdjacencySymmetry checks A adjacent to B ⇒ B adjacent to A:
// the unordered pair appears exactly once, and looking the relation up
// from either endpoint yields the same shared edge.
func TestDieAdjacencySymmetry(t *testing.T) {
	d := MustNewDie(R10000Like(), 8)
	type edge struct{ lo, hi int }
	seen := make(map[edge]float64)
	for _, adj := range d.Adjacencies() {
		a := d.Index(adj.CoreA, adj.A)
		b := d.Index(adj.CoreB, adj.B)
		if a == b {
			t.Fatalf("self adjacency: %+v", adj)
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if _, dup := seen[edge{lo, hi}]; dup {
			t.Fatalf("duplicate adjacency %d~%d", lo, hi)
		}
		seen[edge{lo, hi}] = adj.SharedMM
	}
	// Symmetric lookup: a directed neighbour map built from both ends of
	// every pair must answer A->B and B->A with the same shared edge.
	neighbours := make(map[[2]int]float64)
	for _, adj := range d.Adjacencies() {
		a := d.Index(adj.CoreA, adj.A)
		b := d.Index(adj.CoreB, adj.B)
		neighbours[[2]int{a, b}] = adj.SharedMM
		neighbours[[2]int{b, a}] = adj.SharedMM
	}
	for _, adj := range d.Adjacencies() {
		a := d.Index(adj.CoreA, adj.A)
		b := d.Index(adj.CoreB, adj.B)
		fwd, fok := neighbours[[2]int{a, b}]
		back, bok := neighbours[[2]int{b, a}]
		if !fok || !bok || fwd != back {
			t.Fatalf("asymmetric adjacency %d~%d: %.6f/%v vs %.6f/%v", a, b, fwd, fok, back, bok)
		}
	}
}

// TestDieCrossCoreSeams checks the tile-seam coupling: on a 1×2 die the
// right-edge blocks of core 0 must be adjacent to the left-edge blocks
// of core 1, and the seam's total shared edge must equal the die
// height (the tiles abut along their full side).
func TestDieCrossCoreSeams(t *testing.T) {
	base := R10000Like()
	d := MustNewDie(base, 2)
	var seam float64
	cross := 0
	for _, adj := range d.Adjacencies() {
		if adj.CoreA == adj.CoreB {
			continue
		}
		cross++
		seam += adj.SharedMM
	}
	if cross == 0 {
		t.Fatal("1x2 die has no cross-core adjacency")
	}
	if math.Abs(seam-base.DieHeightMM) > 1e-9 {
		t.Fatalf("seam shared edge %.9f mm, want die height %.9f mm", seam, base.DieHeightMM)
	}
	// Known seam pair: L1D spans the full die width on the bottom band,
	// so core 0's L1D must touch core 1's L1D across the seam.
	found := false
	for _, adj := range d.Adjacencies() {
		if adj.CoreA != adj.CoreB && adj.A == L1D && adj.B == L1D {
			found = true
		}
	}
	if !found {
		t.Fatal("L1D~L1D seam adjacency missing on 1x2 die")
	}
}

// TestFloorplanOverlapDetection checks that block-overlap validation
// catches a bad floorplan at both the single-core and die level.
func TestFloorplanOverlapDetection(t *testing.T) {
	bad := R10000Like()
	// Stretch the FPU into the LSQ's band: a genuine overlap.
	r := bad.Blocks[FPU].Rect
	bad.Blocks[FPU].Rect = Rect{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1 + 0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted an overlapping floorplan")
	}
	if _, err := NewDie(bad, 2); err == nil {
		t.Fatal("NewDie accepted an overlapping base floorplan")
	}
}

func TestDieIndexRoundTrip(t *testing.T) {
	d := MustNewDie(R10000Like(), 4)
	for k := 0; k < d.NCores; k++ {
		for s := Structure(0); s < NumStructures; s++ {
			i := d.Index(k, s)
			ck, cs := d.CoreOf(i)
			if ck != k || cs != s {
				t.Fatalf("Index/CoreOf round trip broke: (%d,%v) -> %d -> (%d,%v)", k, s, i, ck, cs)
			}
		}
	}
	if d.NumBlocks() != 4*int(NumStructures) {
		t.Fatalf("NumBlocks = %d", d.NumBlocks())
	}
}
