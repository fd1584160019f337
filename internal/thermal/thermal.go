// Package thermal is a compact thermal resistance model in the spirit
// of HotSpot (the paper's thermal simulator).
//
// The network is built from a floorplan.Die. It has one node per die
// block (core, structure) — flat index core·NumStructures + structure,
// as assigned by floorplan.Die.Index — one node for the heat spreader
// and one for the heat sink, both shared by the whole die:
//
//	block i --Rv(i)--> spreader --Rsp--> sink --Rconv--> ambient
//	block i --Rlat(i,j)--> block j        (shared-edge neighbours)
//
// Vertical resistances follow conduction through the die and thermal
// interface (t/(k·A)); lateral resistances follow conduction along the
// die between block centres through the shared edge cross-section, so
// on a manycore die neighbouring cores couple through the tile seams.
// The paper's single core is the one-core die.
//
// The paper's two-pass heat-sink initialisation (Section 6.3) is exposed
// directly: the sink's RC time constant (~minutes) is far larger than a
// simulated run, so a first pass measures average power, SinkSteadyTemp
// converts it to the sink's steady temperature, and the second pass runs
// with the sink pinned there. QuasiSteadyInto then gives per-block
// temperatures for an interval, which is valid because block time
// constants (~ms) are far below the interval lengths RAMP samples. Every
// temperature the method uses is such a quasi-steady one, so the model
// carries no heat capacities and no transient integrator.
//
// The conductance matrix never changes after construction — only the
// power vector and the pinned sink temperature (the right-hand side) do —
// so New factorizes the quasi-steady system once (LU with partial
// pivoting) and keeps only the factors' nonzeros. Every QuasiSteadyInto
// call is then a pair of triangular substitutions over those nonzeros,
// with no matrix assembly. See DESIGN.md §7.
package thermal

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/floorplan"
)

// Params holds the physical constants of the package stack.
type Params struct {
	DieThicknessM  float64 // silicon die thickness
	KSiliconWmK    float64 // silicon thermal conductivity
	RVertExtraKWm2 float64 // extra vertical resistance (TIM), K·m²/W

	SpreaderRKW float64 // spreader -> sink resistance
	SinkRKW     float64 // sink -> ambient (convection) resistance

	AmbientK float64
}

// DefaultParams returns HotSpot-like constants for the paper's package:
// a 0.5 mm die, copper spreader, and a sink sized so the hottest
// application peaks near 400 K, as in Section 7.1.
func DefaultParams(ambientK float64) Params {
	return Params{
		DieThicknessM:  0.5e-3,
		KSiliconWmK:    100,
		RVertExtraKWm2: 8.0e-6,
		SpreaderRKW:    0.12,
		SinkRKW:        0.60,
		AmbientK:       ambientK,
	}
}

// DieParams returns package constants for an n-core die: the silicon
// stack is unchanged (per-block vertical resistance already scales with
// block area), but the spreader and sink grow with the die — n times
// the heat flows through them, so their resistances drop by the core
// count. DieParams(ambientK, 1) is exactly DefaultParams(ambientK).
func DieParams(ambientK float64, nCores int) Params {
	p := DefaultParams(ambientK)
	if nCores > 1 {
		f := float64(nCores)
		p.SpreaderRKW /= f
		p.SinkRKW /= f
	}
	return p
}

// Model is the assembled thermal network of a die with its
// pre-factorized quasi-steady solver. Nothing in it changes after
// construction: callers own every solve buffer, so one Model serves
// concurrent solves (the evaluation workers of an Env share one).
type Model struct {
	die *floorplan.Die
	p   Params
	nb  int // die blocks: cores · NumStructures
	n   int // total nodes: blocks + spreader + sink

	// quasi is the factorized (n-1)-node system with the sink pinned;
	// the matrix depends only on geometry and package constants.
	quasi   lu
	gToSink []float64 // per-node conductance into the pinned sink (RHS assembly)
}

// New assembles the thermal network of a die and factorizes its
// quasi-steady system.
func New(die *floorplan.Die, p Params) (*Model, error) {
	if p.DieThicknessM <= 0 || p.KSiliconWmK <= 0 || p.SinkRKW <= 0 || p.SpreaderRKW <= 0 {
		return nil, fmt.Errorf("thermal: non-positive physical parameter: %+v", p)
	}
	a := network(die, p)
	nb := die.NumBlocks()
	n := nb + 2
	// Quasi-steady system: the sink (the last node) is pinned, so its
	// row and column drop out and its conductances feed the RHS. The
	// Laplacian's diagonal already holds them, summed last, so the
	// system is the leading (n-1)×(n-1) block, packed row by row into the
	// front of the same array.
	nq := n - 1
	m := &Model{die: die, p: p, nb: nb, n: n, gToSink: make([]float64, nq)}
	for i := 0; i < nq; i++ {
		if g := a[i*n+nq]; g != 0 {
			m.gToSink[i] = -g
		}
		copy(a[i*nq:(i+1)*nq], a[i*n:i*n+nq])
	}
	if err := m.quasi.factorize(nq, a[:nq*nq]); err != nil {
		return nil, err
	}
	return m, nil
}

// network assembles the conductance Laplacian of a die's thermal
// network: a row-major n×n matrix, n = NumBlocks()+2, whose
// off-diagonal entry (i, j) is minus the conductance between nodes i and
// j and whose diagonal holds each node's total conductance, summed in
// column order. The sink's leg to ambient is not in it.
func network(die *floorplan.Die, p Params) []float64 {
	nb := die.NumBlocks()
	n := nb + 2
	spreader, sink := nb, nb+1
	a := make([]float64, n*n)
	couple := func(i, j int, g float64) {
		a[i*n+j] -= g
		a[j*n+i] -= g
	}
	for i := 0; i < nb; i++ {
		core, s := die.CoreOf(i)
		areaM2 := die.AreaMM2(core, s) * 1e-6
		// Vertical: die conduction plus TIM, block -> spreader.
		r := p.DieThicknessM/(p.KSiliconWmK*areaM2) + p.RVertExtraKWm2/areaM2
		couple(i, spreader, 1/r)
	}
	// Lateral conduction between adjacent blocks — intra-core and across
	// tile seams alike.
	for _, adj := range die.Adjacencies() {
		sharedM := adj.SharedMM * 1e-3
		distM := adj.CenterDist * 1e-3
		if distM <= 0 {
			continue
		}
		gl := p.KSiliconWmK * p.DieThicknessM * sharedM / distM
		couple(die.Index(adj.CoreA, adj.A), die.Index(adj.CoreB, adj.B), gl)
	}
	couple(spreader, sink, 1/p.SpreaderRKW)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a[i*n+j]; j != i && v != 0 {
				a[i*n+i] -= v
			}
		}
	}
	return a
}

// MustNew is New, panicking on bad parameters.
func MustNew(die *floorplan.Die, p Params) *Model {
	m, err := New(die, p)
	if err != nil {
		panic(err)
	}
	return m
}

// NumBlocks returns the die's block count (cores · NumStructures); the
// block power slices the solves take have this length.
func (m *Model) NumBlocks() int { return m.nb }

// Nodes returns the total node count (blocks + spreader + sink).
func (m *Model) Nodes() int { return m.n }

// SinkSteadyTemp returns the sink temperature reached under a constant
// total die power (the first pass of the paper's two-pass
// initialisation; the sink is shared by every core).
func (m *Model) SinkSteadyTemp(totalPowerW float64) float64 {
	return m.p.AmbientK + totalPowerW*m.p.SinkRKW
}

// QuasiSteadyInto solves the block and spreader temperatures with the
// sink pinned at sinkTempK, in place in x: Nodes()-1 entries, the blocks
// (indexed by Die.Index) and then the spreader. blockPower holds
// NumBlocks per-block powers in the same layout. This is the
// second-pass operating mode: block and spreader time constants are
// milliseconds, far below RAMP's sampling interval, so each interval
// sees its steady temperatures; the sink integrates over the whole run.
//
// This is the innermost call of every evaluation (once per leakage
// iteration per epoch); against the pre-factorized system it performs no
// assembly, no elimination and no heap allocation, and it writes no
// memory but x.
//
//ramp:hot
func (m *Model) QuasiSteadyInto(x, blockPower []float64, sinkTempK float64) {
	nq := m.n - 1 // exclude the pinned sink
	if len(x) != nq || len(blockPower) != m.nb {
		panic(fmt.Sprintf("thermal: solve needs %d temperatures and %d block powers, got %d and %d",
			nq, m.nb, len(x), len(blockPower)))
	}
	for i := 0; i < nq; i++ {
		x[i] = m.gToSink[i] * sinkTempK
	}
	for i := 0; i < m.nb; i++ {
		x[i] += blockPower[i]
	}
	m.quasi.solve(x)
	for i := 0; i < m.nb; i++ {
		// A block temperature outside plausible silicon range means the
		// power input or the pinned sink temperature carried a unit bug.
		check.TempK("thermal.QuasiSteadyInto", x[i])
	}
}

// MaxCoreTemp returns the hottest block temperature of one core within
// a flat per-block temperature slice.
//
//ramp:hot
func (m *Model) MaxCoreTemp(temps []float64, core int) float64 {
	lo := m.die.Index(core, 0)
	hi := lo + int(floorplan.NumStructures)
	maxT := temps[lo]
	for i := lo + 1; i < hi; i++ {
		if temps[i] > maxT {
			maxT = temps[i]
		}
	}
	return maxT
}

// lu is an LU factorization with partial pivoting: unit-lower
// multipliers below the diagonal, U on and above it. The quasi-steady
// system is factorized once and solved millions of times, and on a
// die most factor entries are structural zeros (83% at eight cores), so
// each row keeps only its nonzeros, in column order: L's entries, the
// diagonal, then U's. A skipped term is s − 0·x, which equals s for
// finite x, so every substitution sum is bitwise the dense one.
type lu struct {
	n    int
	piv  []int     // piv[k]: row swapped with row k at elimination step k
	val  []float64 // the factors' nonzeros, row by row
	col  []int32   // val[k]'s column
	row  []int32   // row r's entries are val[row[r]:row[r+1]]
	diag []int32   // index in val of row r's diagonal
}

// factorize computes the factorization of the row-major n×n matrix a,
// taking ownership of a: elimination runs on it densely, then the
// nonzeros are packed into its front.
func (f *lu) factorize(n int, a []float64) error {
	f.n = n
	f.piv = make([]int, n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest remaining entry in this column.
		p := col
		pmax := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pmax {
				pmax = v
				p = r
			}
		}
		if pmax == 0 {
			return fmt.Errorf("thermal: singular conductance matrix")
		}
		f.piv[col] = p
		if p != col {
			// Swap whole rows; L multipliers travel with their row.
			for k := 0; k < n; k++ {
				a[col*n+k], a[p*n+k] = a[p*n+k], a[col*n+k]
			}
		}
		pivInv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			mult := a[r*n+col] * pivInv
			a[r*n+col] = mult
			if mult == 0 {
				continue
			}
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= mult * a[col*n+k]
			}
		}
	}
	// Count the nonzeros, size the index arrays once, then pack the
	// values in row-major order: the write index never passes the read
	// index. Every diagonal entry is a nonzero pivot, so each row keeps
	// one.
	nnz := 0
	for _, v := range a[:n*n] {
		if v != 0 {
			nnz++
		}
	}
	idx := make([]int32, nnz+2*n+1)
	f.col, f.row, f.diag = idx[:nnz], idx[nnz:nnz+n+1], idx[nnz+n+1:]
	w := 0
	for r := 0; r < n; r++ {
		f.row[r] = int32(w)
		for c := 0; c < n; c++ {
			v := a[r*n+c]
			if v == 0 {
				continue
			}
			if c == r {
				f.diag[r] = int32(w)
			}
			a[w] = v
			f.col[w] = int32(c)
			w++
		}
	}
	f.row[n] = int32(w)
	f.val = a[:w]
	return nil
}

// solve overwrites b (len n) with A⁻¹·b by two triangular substitutions
// over the factors' nonzeros. It performs no allocation.
//
//ramp:hot
func (f *lu) solve(b []float64) {
	for k, p := range f.piv {
		if p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	// Forward substitution against unit-lower L: each row's entries
	// before its diagonal.
	for r := 1; r < f.n; r++ {
		lo, d := f.row[r], f.diag[r]
		cols := f.col[lo:d]
		s := b[r]
		for k, v := range f.val[lo:d] {
			s -= v * b[cols[k]]
		}
		b[r] = s
	}
	// Back substitution against U: the diagonal and the entries after it.
	for r := f.n - 1; r >= 0; r-- {
		d, hi := f.diag[r], f.row[r+1]
		cols := f.col[d+1 : hi]
		s := b[r]
		for k, v := range f.val[d+1 : hi] {
			s -= v * b[cols[k]]
		}
		b[r] = s / f.val[d]
	}
}
