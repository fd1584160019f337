package floorplan

import (
	"fmt"
	"math"
)

// Die is a manycore die: n copies of a single-core floorplan tiled on a
// rows × cols grid. Every tile is geometrically identical to the base
// floorplan; tiles only differ by their (x, y) offset on the die.
// Structure addressing becomes (core, Structure), flattened to a single
// block index core·NumStructures + Structure wherever a dense vector or
// matrix is indexed (thermal conductance, per-block power).
//
// Adjacency is computed in global die coordinates, so blocks of
// neighbouring cores that meet at a tile seam are adjacent exactly like
// blocks inside one core: the cores thermally couple through shared
// silicon, which is what makes placement a lifetime decision on a
// manycore die (hot neighbours heat each other).
//
// A Die with n = 1 is the paper's single core: the offsets are exactly
// zero, so every block rectangle, area, shared edge and centre distance
// is the base floorplan's own.
type Die struct {
	Base   *Floorplan
	NCores int
	// Grid shape: NCores = Rows·Cols with Rows ≤ Cols (wide dies). Core
	// k sits at column k%Cols, row k/Cols.
	Rows, Cols int
	// Die envelope in mm.
	WidthMM, HeightMM float64

	offX, offY  []float64 // per-core tile offsets, mm
	adjacencies []DieAdjacency
}

// DieAdjacency records that two blocks on the die share an edge: inside
// one core, or across a tile seam.
type DieAdjacency struct {
	CoreA, CoreB int
	A, B         Structure
	SharedMM     float64 // length of the shared edge, mm
	CenterDist   float64 // centre-to-centre distance, mm
}

// NewDie tiles base into an n-core die. n must be at least 1; the grid
// is the most square rows × cols factorisation of n (rows is the
// largest divisor of n not exceeding √n), so n ∈ {1, 2, 4, 8, 16}
// yields 1×1, 1×2, 2×2, 2×4 and 4×4 grids.
func NewDie(base *Floorplan, n int) (*Die, error) {
	if n < 1 {
		return nil, fmt.Errorf("floorplan: die needs at least one core, got %d", n)
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: die base: %w", err)
	}
	rows := 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	cols := n / rows
	d := &Die{
		Base:     base,
		NCores:   n,
		Rows:     rows,
		Cols:     cols,
		WidthMM:  float64(cols) * base.DieWidthMM,
		HeightMM: float64(rows) * base.DieHeightMM,
		offX:     make([]float64, n),
		offY:     make([]float64, n),
	}
	for k := 0; k < n; k++ {
		d.offX[k] = float64(k%cols) * base.DieWidthMM
		d.offY[k] = float64(k/cols) * base.DieHeightMM
	}
	d.computeAdjacencies()
	return d, nil
}

// MustNewDie is NewDie, panicking on invalid inputs.
func MustNewDie(base *Floorplan, n int) *Die {
	d, err := NewDie(base, n)
	if err != nil {
		panic(err)
	}
	return d
}

// NumBlocks returns the total block count across all cores.
func (d *Die) NumBlocks() int { return d.NCores * int(NumStructures) }

// Index flattens a (core, structure) address into a dense block index.
func (d *Die) Index(core int, s Structure) int {
	return core*int(NumStructures) + int(s)
}

// CoreOf inverts Index: the core and structure of a flat block index.
func (d *Die) CoreOf(i int) (core int, s Structure) {
	return i / int(NumStructures), Structure(i % int(NumStructures))
}

// BlockRect returns a block's rectangle in global die coordinates.
func (d *Die) BlockRect(core int, s Structure) Rect {
	r := d.Base.Blocks[s].Rect
	return Rect{
		X0: r.X0 + d.offX[core], Y0: r.Y0 + d.offY[core],
		X1: r.X1 + d.offX[core], Y1: r.Y1 + d.offY[core],
	}
}

// AreaMM2 returns the area of structure s on any core; tiles are
// replicas, so it equals the base floorplan's.
func (d *Die) AreaMM2(core int, s Structure) float64 {
	return d.Base.AreaMM2(s)
}

// Adjacencies returns every pair of blocks on the die that share an
// edge, intra-core and across tile seams, in deterministic flat-index
// order.
func (d *Die) Adjacencies() []DieAdjacency {
	return d.adjacencies
}

// computeAdjacencies finds shared edges between all block pairs in
// global coordinates, visiting pairs i < j in flat-index order; cross-core
// pairs only appear for blocks meeting at a tile seam.
func (d *Die) computeAdjacencies() {
	nb := d.NumBlocks()
	// Rectangles that meet along edges form a planar graph, which has at
	// most 3·nb − 6 edges: one allocation holds every adjacency.
	d.adjacencies = make([]DieAdjacency, 0, 3*nb)
	for i := 0; i < nb; i++ {
		ci, si := d.CoreOf(i)
		a := d.BlockRect(ci, si)
		for j := i + 1; j < nb; j++ {
			cj, sj := d.CoreOf(j)
			// Blocks further than one tile apart can never touch; skip
			// the rectangle test for those (pure speed, same result).
			if abs(ci%d.Cols-cj%d.Cols) > 1 || abs(ci/d.Cols-cj/d.Cols) > 1 {
				continue
			}
			b := d.BlockRect(cj, sj)
			shared := sharedEdge(a, b)
			if shared <= adjacencyEps {
				continue
			}
			dx := a.CenterX() - b.CenterX()
			dy := a.CenterY() - b.CenterY()
			d.adjacencies = append(d.adjacencies, DieAdjacency{
				CoreA: ci, A: si,
				CoreB: cj, B: sj,
				SharedMM:   shared,
				CenterDist: math.Hypot(dx, dy),
			})
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Validate checks the tiled die geometrically: every block lies within
// the die envelope, no two blocks overlap (including across tile
// seams), block areas sum to exactly n times the base floorplan's, and
// the adjacency relation is symmetric and irredundant.
func (d *Die) Validate() error {
	nb := d.NumBlocks()
	var sum float64
	for i := 0; i < nb; i++ {
		ci, si := d.CoreOf(i)
		r := d.BlockRect(ci, si)
		if r.X0 < -adjacencyEps || r.Y0 < -adjacencyEps ||
			r.X1 > d.WidthMM+adjacencyEps || r.Y1 > d.HeightMM+adjacencyEps {
			return fmt.Errorf("floorplan: die core %d %v outside envelope: %+v", ci, si, r)
		}
		sum += r.AreaMM2()
		for j := 0; j < i; j++ {
			cj, sj := d.CoreOf(j)
			o := d.BlockRect(cj, sj)
			if r.X0 < o.X1-adjacencyEps && o.X0 < r.X1-adjacencyEps &&
				r.Y0 < o.Y1-adjacencyEps && o.Y0 < r.Y1-adjacencyEps {
				return fmt.Errorf("floorplan: die core %d %v overlaps core %d %v", ci, si, cj, sj)
			}
		}
	}
	die := d.WidthMM * d.HeightMM
	if diff := sum - die; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("floorplan: die block areas sum to %.6f mm^2, envelope is %.6f mm^2", sum, die)
	}
	// Adjacency symmetry: each unordered pair must appear exactly once,
	// and the relation A~B implies B~A by construction of that single
	// record; a duplicate (in either order) breaks the conductance
	// assembly, which adds each pair once.
	seen := make(map[[2]int]bool, len(d.adjacencies))
	for _, adj := range d.adjacencies {
		a := d.Index(adj.CoreA, adj.A)
		b := d.Index(adj.CoreB, adj.B)
		if a == b {
			return fmt.Errorf("floorplan: die self-adjacency at block %d", a)
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if seen[[2]int{lo, hi}] {
			return fmt.Errorf("floorplan: duplicate die adjacency %d~%d", lo, hi)
		}
		seen[[2]int{lo, hi}] = true
	}
	return nil
}
