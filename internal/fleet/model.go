// Compiled per-policy lifetime model.
//
// The engine flattens each policy's core.LifetimeModel into a fixed
// (structure × mechanism) cell grid so the per-chip hot loop is plain
// array arithmetic. The grid shape is identical for every policy — a
// cell that is inactive under one policy keeps its slot with an
// infinite Weibull scale — which is what makes common random numbers
// work: the same per-cell uniform draw feeds the same cell under every
// policy, so cross-policy survival deltas are differences in the model,
// not in the noise.
package fleet

import (
	"fmt"
	"math"

	"ramp/internal/core"
	"ramp/internal/floorplan"
)

// The fixed cell grid: one slot per (structure, mechanism) pair,
// active or not.
const (
	numStructs = int(floorplan.NumStructures)
	numMechs   = int(core.NumMechanisms)
	numCells   = numStructs * numMechs
)

// The sampler's per-chip memo masks hold one bit per cell.
var _ [64 - numCells]struct{}

// cellIndex flattens (structure, mechanism) mechanism-minor.
func cellIndex(s floorplan.Structure, m core.Mechanism) int {
	return int(s)*numMechs + int(m)
}

// cellMechanism recovers the mechanism of a flat cell index.
func cellMechanism(c int) core.Mechanism {
	return core.Mechanism(c % numMechs)
}

// compiledPolicy is one DRM policy's lifetime model on the cell grid.
type compiledPolicy struct {
	name string
	// eta is the Weibull scale (hours) per cell; +Inf marks a cell with
	// no active failure component.
	eta [numCells]float64
	// logEta is log(eta), which turns a cell's log z bounds into bounds
	// on its failure time.
	logEta [numCells]float64
	// active lists the cells with a finite eta in ascending order; the
	// sampler never evaluates any other cell.
	active []uint8
}

// compilePolicy builds the grid form of one policy from its RAMP
// assessment, going through core.NewLifetimeModel so the sampled
// distributions are exactly the ones Reliability integrates.
func compilePolicy(name string, a core.Assessment, shapes core.WeibullShapes) (compiledPolicy, *core.LifetimeModel, error) {
	lm, err := core.NewLifetimeModel(a, shapes)
	if err != nil {
		return compiledPolicy{}, nil, fmt.Errorf("fleet: policy %q: %w", name, err)
	}
	cp := compiledPolicy{name: name}
	for c := range cp.eta {
		cp.eta[c] = math.Inf(1)
	}
	for i := 0; i < lm.Components(); i++ {
		s, m, _, scale := lm.Component(i)
		if math.IsNaN(scale) {
			return compiledPolicy{}, nil, fmt.Errorf("fleet: policy %q: %v %v has no Weibull scale", name, s, m)
		}
		cp.eta[cellIndex(s, m)] = scale
	}
	for c, eta := range cp.eta {
		cp.logEta[c] = math.Log(eta)
		if !math.IsInf(eta, 1) {
			cp.active = append(cp.active, uint8(c))
		}
	}
	return cp, lm, nil
}

// invBetaGrid precomputes 1/beta per cell from the per-mechanism
// shapes. Shapes are policy-independent, which is what lets the engine
// share the per-chip draw transform z = (−ln u)^(1/beta) / k across
// every policy.
func invBetaGrid(shapes core.WeibullShapes) (g [numCells]float64, err error) {
	for m, b := range shapes {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return g, fmt.Errorf("fleet: non-positive Weibull shape for %v", core.Mechanism(m))
		}
	}
	for c := range g {
		g[c] = 1 / shapes[cellMechanism(c)]
	}
	return g, nil
}
