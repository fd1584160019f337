package thermal

import (
	"fmt"
	"math"

	"ramp/internal/check"
)

// Production code solves only the quasi-steady system. The full-network
// steady state and the dense Gaussian-elimination oracle live here, for
// the tests that check that solve and the network's physics. Both are
// built on network, the assembly New factorizes.

// sinkToAmbient returns the sink's convection conductance.
func (m *Model) sinkToAmbient() float64 { return 1 / m.p.SinkRKW }

// fullNetwork returns the full network's n×n matrix: the conductance
// Laplacian plus the sink's leg to ambient.
func (m *Model) fullNetwork() []float64 {
	a := network(m.die, m.p)
	a[m.n*m.n-1] += m.sinkToAmbient()
	return a
}

// SteadyState solves the full network — the sink coupled to ambient
// rather than pinned — for constant per-block power and returns every
// node temperature (blocks, then spreader, then sink).
func (m *Model) SteadyState(blockPower []float64) []float64 {
	if len(blockPower) != m.nb {
		panic(fmt.Sprintf("thermal: SteadyState needs %d block powers, got %d", m.nb, len(blockPower)))
	}
	var f lu
	if err := f.factorize(m.n, m.fullNetwork()); err != nil {
		panic(err)
	}
	t := make([]float64, m.n)
	t[m.n-1] = m.sinkToAmbient() * m.p.AmbientK
	for i := 0; i < m.nb; i++ {
		t[i] += blockPower[i]
	}
	f.solve(t)
	for _, v := range t {
		check.TempK("thermal.SteadyState", v)
	}
	return t
}

// refQuasiSteady solves the pinned-sink system with the dense oracle and
// returns the Nodes()-1 block and spreader temperatures.
func refQuasiSteady(m *Model, blockPower []float64, sinkTempK float64) []float64 {
	a := network(m.die, m.p)
	nq := m.n - 1
	q := make([]float64, nq*nq)
	b := make([]float64, nq)
	for i := 0; i < nq; i++ {
		copy(q[i*nq:(i+1)*nq], a[i*m.n:i*m.n+nq])
		b[i] = -a[i*m.n+nq] * sinkTempK
	}
	for i := 0; i < m.nb; i++ {
		b[i] += blockPower[i]
	}
	return gaussSolve(nq, q, b)
}

// refSteadyState solves the full network with the dense oracle.
func refSteadyState(m *Model, blockPower []float64) []float64 {
	b := make([]float64, m.n)
	b[m.n-1] = m.sinkToAmbient() * m.p.AmbientK
	for i := 0; i < m.nb; i++ {
		b[i] += blockPower[i]
	}
	return gaussSolve(m.n, m.fullNetwork(), b)
}

// gaussSolve is one-shot Gaussian elimination with partial pivoting, the
// independent oracle for the factorized solves: it solves a·x = b for
// the row-major n×n matrix a, destroying a and b.
func gaussSolve(n int, a, b []float64) []float64 {
	for col := 0; col < n; col++ {
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
