// Package thermal is a compact RC thermal model in the spirit of HotSpot
// (the paper's thermal simulator).
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
// Every node has a heat capacity, so the model supports both
// steady-state solves and transient integration (implicit Euler,
// unconditionally stable). The paper's single core is the one-core die.
//
// The conductance matrices never change after construction — only the
// power vector and the pinned sink temperature (the right-hand side) do —
// so New factorizes both steady-state systems once (LU with partial
// pivoting) and every QuasiSteadyInto/SteadyState call is a pair of
// O(n²) triangular substitutions with no matrix assembly. See DESIGN.md
// §7.
//
// The paper's two-pass heat-sink initialisation (Section 6.3) is exposed
// directly: the sink's RC time constant (~minutes) is far larger than a
// simulated run, so a first pass measures average power, SinkSteadyTemp
// converts it to the sink's steady temperature, and the second pass runs
// with the sink pinned there. QuasiSteadyInto then gives per-block
// temperatures for an interval, which is valid because block time
// constants (~ms) are far below the interval lengths RAMP samples.
package thermal

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
)

// Params holds the physical constants of the package stack.
type Params struct {
	DieThicknessM  float64 // silicon die thickness
	KSiliconWmK    float64 // silicon thermal conductivity
	CSiliconJm3K   float64 // silicon volumetric heat capacity
	RVertExtraKWm2 float64 // extra vertical resistance (TIM), K·m²/W

	SpreaderRKW float64 // spreader -> sink resistance
	SpreaderCJK float64 // spreader heat capacity
	SinkRKW     float64 // sink -> ambient (convection) resistance
	SinkCJK     float64 // sink heat capacity

	AmbientK float64
}

// DefaultParams returns HotSpot-like constants for the paper's package:
// a 0.5 mm die, copper spreader, and a sink sized so the hottest
// application peaks near 400 K, as in Section 7.1.
func DefaultParams(ambientK float64) Params {
	return Params{
		DieThicknessM:  0.5e-3,
		KSiliconWmK:    100,
		CSiliconJm3K:   1.75e6,
		RVertExtraKWm2: 8.0e-6,
		SpreaderRKW:    0.12,
		SpreaderCJK:    12,
		SinkRKW:        0.60,
		SinkCJK:        140,
		AmbientK:       ambientK,
	}
}

// DieParams returns package constants for an n-core die: the silicon
// stack is unchanged (per-block vertical resistance already scales with
// block area), but the spreader and sink grow with the die — n times
// the heat flows through them, so their resistances drop and their
// capacities rise by the core count. DieParams(ambientK, 1) is exactly
// DefaultParams(ambientK).
func DieParams(ambientK float64, nCores int) Params {
	p := DefaultParams(ambientK)
	if nCores > 1 {
		f := float64(nCores)
		p.SpreaderRKW /= f
		p.SinkRKW /= f
		p.SpreaderCJK *= f
		p.SinkCJK *= f
	}
	return p
}

// Model is the assembled RC network of a die with its pre-factorized
// solvers. Nothing in it changes after construction: callers own every
// solve buffer, so one Model serves concurrent solves (the evaluation
// workers of an Env share one).
type Model struct {
	die    *floorplan.Die
	p      Params
	nb     int       // die blocks: cores · NumStructures
	n      int       // total nodes: blocks + spreader + sink
	c      []float64 // per-node heat capacity
	gSinkA float64   // sink -> ambient conductance

	// Pre-factorized systems (the matrices depend only on geometry and
	// package constants, fixed at construction).
	quasi   lu        // (n-1)-node quasi-steady system, sink pinned
	full    lu        // n-node full network with sink->ambient coupling
	fullA   []float64 // pristine full matrix (Laplacian + sink leg), for Step's C/dt refactorization
	gToSink []float64 // per-node conductance into the pinned sink (RHS assembly)

	// solves counts linear-system solves (observability; nil = uncounted).
	solves *obs.Counter
}

// New assembles the thermal network of a die and factorizes its
// steady-state systems.
func New(die *floorplan.Die, p Params) (*Model, error) {
	if p.DieThicknessM <= 0 || p.KSiliconWmK <= 0 || p.SinkRKW <= 0 || p.SpreaderRKW <= 0 {
		return nil, fmt.Errorf("thermal: non-positive physical parameter: %+v", p)
	}
	nb := die.NumBlocks()
	n := nb + 2
	m := &Model{
		die:    die,
		p:      p,
		nb:     nb,
		n:      n,
		c:      make([]float64, n),
		gSinkA: 1 / p.SinkRKW,
	}
	g := make([]float64, n*n) // conductance between node pairs, row-major (symmetric)
	c := m.c
	spreader := nb
	sink := nb + 1

	for i := 0; i < nb; i++ {
		core, s := die.CoreOf(i)
		areaM2 := die.AreaMM2(core, s) * 1e-6
		// Vertical: die conduction plus TIM, block -> spreader.
		r := p.DieThicknessM/(p.KSiliconWmK*areaM2) + p.RVertExtraKWm2/areaM2
		gv := 1 / r
		g[i*n+spreader] += gv
		g[spreader*n+i] += gv
		// Block heat capacity.
		c[i] = p.CSiliconJm3K * areaM2 * p.DieThicknessM
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
		a, b := die.Index(adj.CoreA, adj.A), die.Index(adj.CoreB, adj.B)
		g[a*n+b] += gl
		g[b*n+a] += gl
	}
	// Spreader -> sink.
	gss := 1 / p.SpreaderRKW
	g[spreader*n+sink] += gss
	g[sink*n+spreader] += gss
	c[spreader] = p.SpreaderCJK
	c[sink] = p.SinkCJK

	// Full network: conductance Laplacian plus the sink->ambient leg.
	m.fullA = make([]float64, n*n)
	fillConductance(g, n, m.fullA, n)
	m.fullA[sink*n+sink] += m.gSinkA
	if err := m.full.factorize(n, append([]float64(nil), m.fullA...)); err != nil {
		return nil, err
	}

	// Quasi-steady network: the sink row/column is removed (pinned
	// temperature); conductances into the sink stay on the diagonal and
	// feed the RHS.
	nq := n - 1
	qa := make([]float64, nq*nq)
	fillConductance(g, n, qa, nq)
	m.gToSink = make([]float64, nq)
	for i := 0; i < nq; i++ {
		gs := g[i*n+sink]
		m.gToSink[i] = gs
		qa[i*nq+i] += gs
	}
	if err := m.quasi.factorize(nq, qa); err != nil {
		return nil, err
	}
	return m, nil
}

// fillConductance writes the Laplacian of the first dim nodes of the
// n-node conductance graph g into the row-major dim×dim matrix a.
func fillConductance(g []float64, n int, a []float64, dim int) {
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			if i == j {
				continue
			}
			gv := g[i*n+j]
			if gv != 0 {
				a[i*dim+i] += gv
				a[i*dim+j] -= gv
			}
		}
	}
}

// MustNew is New, panicking on bad parameters.
func MustNew(die *floorplan.Die, p Params) *Model {
	m, err := New(die, p)
	if err != nil {
		panic(err)
	}
	return m
}

// CountSolves attaches a counter incremented once per linear-system
// solve — SteadyState, QuasiSteadyInto and transient Step all count.
// The counter is atomic, so counting stays safe under concurrent
// solves; a nil counter (the default) makes the increment a nil-check
// no-op. Attach it before the first solve.
func (m *Model) CountSolves(c *obs.Counter) { m.solves = c }

// Die returns the floorplan die the model was built from.
func (m *Model) Die() *floorplan.Die { return m.die }

// NumBlocks returns the die's block count (cores · NumStructures); the
// block power slices the solves take have this length.
func (m *Model) NumBlocks() int { return m.nb }

// Nodes returns the total node count (blocks + spreader + sink).
func (m *Model) Nodes() int { return m.n }

// Ambient returns the model's ambient temperature (K).
func (m *Model) Ambient() float64 { return m.p.AmbientK }

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
	m.quasi.solveInto(x, x)
	m.solves.Inc()
	for i := 0; i < m.nb; i++ {
		// A block temperature outside plausible silicon range means the
		// power input or the pinned sink temperature carried a unit bug.
		check.TempK("thermal.QuasiSteadyInto", x[i])
	}
}

// SteadyState solves the full network for constant per-block power and
// returns all node temperatures (blocks, then spreader, then sink).
func (m *Model) SteadyState(blockPower []float64) []float64 {
	if len(blockPower) != m.nb {
		panic(fmt.Sprintf("thermal: SteadyState needs %d block powers, got %d", m.nb, len(blockPower)))
	}
	t := make([]float64, m.n)
	t[m.n-1] = m.gSinkA * m.p.AmbientK
	for i := 0; i < m.nb; i++ {
		t[i] += blockPower[i]
	}
	m.full.solveInto(t, t)
	m.solves.Inc()
	for _, v := range t {
		check.TempK("thermal.SteadyState", v)
	}
	return t
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

// State integrates the network through time (implicit Euler). It caches
// the factorization of (C/dt + G), refactorizing only when dt changes, so
// fixed-step integration factorizes once. A State belongs to one
// goroutine; the underlying Model stays shareable.
type State struct {
	m     *Model
	temps []float64 // blocks, spreader, sink; each Step solves in place

	dt    float64 // dt the cached factorization was built for (0 = none)
	step  lu
	stepA []float64
}

// NewState returns a transient state with every node at temp0.
func (m *Model) NewState(temp0 float64) *State {
	t := make([]float64, m.n)
	for i := range t {
		t[i] = temp0
	}
	return &State{m: m, temps: t}
}

// NewStateFrom returns a transient state with explicit node temperatures
// (blocks, spreader, sink — as returned by SteadyState).
func (m *Model) NewStateFrom(temps []float64) (*State, error) {
	if len(temps) != m.n {
		return nil, fmt.Errorf("thermal: NewStateFrom needs %d temperatures, got %d", m.n, len(temps))
	}
	return &State{m: m, temps: append([]float64(nil), temps...)}, nil
}

// Step advances the network by dt seconds under the given block powers
// (NumBlocks entries) using implicit Euler: (C/dt + G) T' = C/dt·T + P.
// Unconditionally stable for any dt.
func (st *State) Step(blockPower []float64, dt float64) {
	if dt <= 0 {
		panic("thermal: non-positive dt")
	}
	m := st.m
	n := m.n
	if len(blockPower) != m.nb {
		panic(fmt.Sprintf("thermal: Step needs %d block powers, got %d", m.nb, len(blockPower)))
	}
	//rampvet:ignore floatcmp -- exact match decides factorization reuse; any differing dt must refactorize
	if st.dt != dt {
		if st.stepA == nil {
			st.stepA = make([]float64, n*n)
		}
		copy(st.stepA, m.fullA)
		for i := 0; i < n; i++ {
			st.stepA[i*n+i] += m.c[i] / dt
		}
		if err := st.step.factorize(n, st.stepA); err != nil {
			// Cannot happen: C/dt only strengthens the diagonal of an
			// already non-singular matrix.
			panic(err)
		}
		st.dt = dt
	}
	t := st.temps
	for i := range t {
		t[i] = m.c[i] / dt * t[i]
	}
	t[n-1] += m.gSinkA * m.p.AmbientK
	for i := 0; i < m.nb; i++ {
		t[i] += blockPower[i]
	}
	st.step.solveInto(t, t)
	m.solves.Inc()
}

// BlockTemps returns the current per-block temperatures.
func (st *State) BlockTemps() []float64 { return append([]float64(nil), st.temps[:st.m.nb]...) }

// SinkTemp returns the current heat-sink temperature.
func (st *State) SinkTemp() float64 { return st.temps[st.m.n-1] }

// SpreaderTemp returns the current spreader temperature.
func (st *State) SpreaderTemp() float64 { return st.temps[st.m.n-2] }

// Temps returns all node temperatures (blocks, spreader, sink).
func (st *State) Temps() []float64 { return append([]float64(nil), st.temps...) }

// lu is an LU factorization with partial pivoting of a dense row-major
// matrix: unit-lower multipliers below the diagonal, U on and above it.
// The thermal systems are factorized once and solved millions of times,
// so solveInto is written to be allocation-free.
type lu struct {
	n   int
	a   []float64 // factors, row-major n×n (owns the backing array)
	piv []int     // piv[k]: row swapped with row k at elimination step k
}

// factorize computes the factorization of the n×n matrix a in place,
// taking ownership of a. Reusing a previously factorized receiver reuses
// its pivot storage.
func (f *lu) factorize(n int, a []float64) error {
	f.n = n
	f.a = a
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
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
	return nil
}

// solveInto writes A⁻¹·b into x (len n each) with two triangular
// substitutions. It performs no allocation; b is not modified unless x
// aliases it.
//
//ramp:hot
func (f *lu) solveInto(x, b []float64) {
	n := f.n
	a := f.a
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution against unit-lower L.
	for r := 1; r < n; r++ {
		s := x[r]
		for k := 0; k < r; k++ {
			s -= a[r*n+k] * x[k]
		}
		x[r] = s
	}
	// Back substitution against U.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for k := r + 1; k < n; k++ {
			s -= a[r*n+k] * x[k]
		}
		x[r] = s / a[r*n+r]
	}
}

// dense is the original one-shot Gaussian-elimination solver. The
// production paths all use the pre-factorized lu; dense is retained as
// the independent oracle the equivalence tests compare against.
type dense struct {
	n int
	a []float64 // row-major n x n
}

func newDense(n int) *dense {
	return &dense{n: n, a: make([]float64, n*n)}
}

func (d *dense) add(i, j int, v float64) {
	d.a[i*d.n+j] += v
}

// solve solves d·x = b, destroying d and b.
func (d *dense) solve(b []float64) []float64 {
	n := d.n
	a := d.a
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		pmax := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pmax {
				pmax = v
				p = r
			}
		}
		if pmax == 0 {
			panic("thermal: singular conductance matrix")
		}
		if p != col {
			for k := 0; k < n; k++ {
				a[col*n+k], a[p*n+k] = a[p*n+k], a[col*n+k]
			}
			b[col], b[p] = b[p], b[col]
		}
		pivInv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * pivInv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r*n+k] * x[k]
		}
		x[r] = s / a[r*n+r]
	}
	return x
}
