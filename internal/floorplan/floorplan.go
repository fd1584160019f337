// Package floorplan models the chip floorplan used by the power, thermal
// and reliability (RAMP) models.
//
// The floorplan follows the paper's setup (Section 6.1/6.3): a MIPS
// R10000-like core without the L2 cache, scaled to a 65 nm process with a
// 4.5 mm x 4.5 mm (20.25 mm^2) die. The core is divided into the discrete
// microarchitectural structures RAMP reasons about: ALUs, FPUs, register
// files, branch predictor, L1 caches, load-store queue and instruction
// window (Section 3). Geometry is expressed as axis-aligned rectangles.
// A Die tiles one or more copies of a floorplan; its block adjacency
// (shared edge length) is derived from the rectangles and feeds the
// lateral thermal resistances of the RC model.
package floorplan

import "fmt"

// Structure identifies one microarchitectural structure on the die.
type Structure int

// The structures RAMP divides the processor into. The order is stable and
// used as an array index throughout the repository.
const (
	Fetch         Structure = iota // fetch + decode + rename front end
	BPred                          // branch predictor (2KB bimodal agree) + RAS
	Window                         // unified instruction window (issue queue + ROB)
	IntRF                          // integer physical register file
	FPRF                           // floating-point physical register file
	IntALU                         // integer ALUs (adders, multiplier, divider)
	AGU                            // address-generation units
	FPU                            // floating-point units
	LSQ                            // load-store (memory) queue
	L1I                            // L1 instruction cache
	L1D                            // L1 data cache
	NumStructures                  // count sentinel; not a structure
)

var structureNames = [NumStructures]string{
	Fetch:  "Fetch",
	BPred:  "BPred",
	Window: "Window",
	IntRF:  "IntRF",
	FPRF:   "FPRF",
	IntALU: "IntALU",
	AGU:    "AGU",
	FPU:    "FPU",
	LSQ:    "LSQ",
	L1I:    "L1I",
	L1D:    "L1D",
}

// String returns the structure's short name.
func (s Structure) String() string {
	if s < 0 || s >= NumStructures {
		return fmt.Sprintf("Structure(%d)", int(s))
	}
	return structureNames[s]
}

// Rect is an axis-aligned rectangle on the die, in millimetres.
// (X0,Y0) is the lower-left corner, (X1,Y1) the upper-right corner.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Width returns the rectangle's extent along x, in mm.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns the rectangle's extent along y, in mm.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// AreaMM2 returns the rectangle's area in mm^2.
func (r Rect) AreaMM2() float64 { return r.Width() * r.Height() }

// CenterX returns the x coordinate of the rectangle's centre, in mm.
func (r Rect) CenterX() float64 { return (r.X0 + r.X1) / 2 }

// CenterY returns the y coordinate of the rectangle's centre, in mm.
func (r Rect) CenterY() float64 { return (r.Y0 + r.Y1) / 2 }

// Block is one placed structure.
type Block struct {
	Structure Structure
	Rect      Rect
}

// Floorplan is a complete die floorplan.
type Floorplan struct {
	DieWidthMM  float64
	DieHeightMM float64
	Blocks      [NumStructures]Block
}

// R10000Like returns the floorplan used throughout the paper's
// evaluation: an R10000-resembling core layout scaled to 4.5 mm x 4.5 mm
// at 65 nm, without the L2 cache (the paper models L2 performance but not
// L2 reliability because it runs much cooler than the core).
func R10000Like() *Floorplan {
	fp := &Floorplan{DieWidthMM: 4.5, DieHeightMM: 4.5}
	place := func(s Structure, x0, y0, x1, y1 float64) {
		fp.Blocks[s] = Block{Structure: s, Rect: Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}}
	}
	// Top band: instruction cache and front end.
	place(L1I, 0.0, 3.2, 2.2, 4.5)
	place(Fetch, 2.2, 3.2, 3.4, 4.5)
	place(BPred, 3.4, 3.2, 4.5, 4.5)
	// Middle band: window, register files, LSQ.
	place(Window, 0.0, 1.8, 1.3, 3.2)
	place(IntRF, 1.3, 1.8, 2.3, 3.2)
	place(FPRF, 2.3, 1.8, 3.3, 3.2)
	place(LSQ, 3.3, 1.8, 4.5, 3.2)
	// Execution band.
	place(IntALU, 0.0, 0.9, 1.8, 1.8)
	place(AGU, 1.8, 0.9, 2.7, 1.8)
	place(FPU, 2.7, 0.9, 4.5, 1.8)
	// Bottom band: data cache.
	place(L1D, 0.0, 0.0, 4.5, 0.9)
	return fp
}

// Scale returns a copy of the floorplan with every linear dimension
// multiplied by factor (areas scale by factor squared). Used by the
// technology-scaling study: the same microarchitecture occupies a
// factor-of-(lambda ratio) larger die at an older node.
func (fp *Floorplan) Scale(factor float64) (*Floorplan, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("floorplan: non-positive scale factor %v", factor)
	}
	out := &Floorplan{
		DieWidthMM:  fp.DieWidthMM * factor,
		DieHeightMM: fp.DieHeightMM * factor,
	}
	for i, b := range fp.Blocks {
		out.Blocks[i] = Block{
			Structure: b.Structure,
			Rect: Rect{
				X0: b.Rect.X0 * factor, Y0: b.Rect.Y0 * factor,
				X1: b.Rect.X1 * factor, Y1: b.Rect.Y1 * factor,
			},
		}
	}
	return out, nil
}

// Validate checks that the blocks tile the die exactly: every block lies
// within the die, blocks do not overlap, and areas sum to the die area.
func (fp *Floorplan) Validate() error {
	var sum float64
	for i := 0; i < int(NumStructures); i++ {
		b := fp.Blocks[i]
		r := b.Rect
		if b.Structure != Structure(i) {
			return fmt.Errorf("floorplan: block %d has structure %v", i, b.Structure)
		}
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > fp.DieWidthMM || r.Y1 > fp.DieHeightMM {
			return fmt.Errorf("floorplan: %v outside die: %+v", b.Structure, r)
		}
		if r.Width() <= 0 || r.Height() <= 0 {
			return fmt.Errorf("floorplan: %v has non-positive extent: %+v", b.Structure, r)
		}
		sum += r.AreaMM2()
		for j := 0; j < i; j++ {
			o := fp.Blocks[j].Rect
			if r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1 {
				return fmt.Errorf("floorplan: %v overlaps %v", b.Structure, fp.Blocks[j].Structure)
			}
		}
	}
	die := fp.DieWidthMM * fp.DieHeightMM
	if d := sum - die; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("floorplan: block areas sum to %.6f mm^2, die is %.6f mm^2", sum, die)
	}
	return nil
}

// AreaMM2 returns the area of structure s in mm^2.
func (fp *Floorplan) AreaMM2(s Structure) float64 {
	return fp.Blocks[s].Rect.AreaMM2()
}

// TotalAreaMM2 returns the summed area of all blocks in mm^2.
func (fp *Floorplan) TotalAreaMM2() float64 {
	var sum float64
	for _, b := range fp.Blocks {
		sum += b.Rect.AreaMM2()
	}
	return sum
}

// AreaFraction returns structure s's fraction of the total block area.
func (fp *Floorplan) AreaFraction(s Structure) float64 {
	return fp.AreaMM2(s) / fp.TotalAreaMM2()
}

const adjacencyEps = 1e-9

// sharedEdge returns the length of the boundary shared by two
// non-overlapping rectangles (0 if they only touch at a corner or not at
// all).
func sharedEdge(a, b Rect) float64 {
	// Vertical shared edge: a's right side against b's left side (or vice
	// versa) with overlapping y ranges.
	if eq(a.X1, b.X0) || eq(b.X1, a.X0) {
		return overlap(a.Y0, a.Y1, b.Y0, b.Y1)
	}
	// Horizontal shared edge.
	if eq(a.Y1, b.Y0) || eq(b.Y1, a.Y0) {
		return overlap(a.X0, a.X1, b.X0, b.X1)
	}
	return 0
}

func eq(a, b float64) bool {
	d := a - b
	return d < adjacencyEps && d > -adjacencyEps
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo := a0
	if b0 > lo {
		lo = b0
	}
	hi := a1
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
