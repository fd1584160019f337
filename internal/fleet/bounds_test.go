package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"ramp/internal/core"
)

// boundEngines returns engines spanning the variation and shape space
// the bounds must hold over.
func boundEngines(t *testing.T) []*Engine {
	t.Helper()
	var engs []*Engine
	for _, beta := range []float64{0.5, 1.5, 5} {
		for _, sigma := range []float64{0.08, 1} {
			cfg := DefaultConfig(1, 1)
			for m := range cfg.Shapes {
				cfg.Shapes[m] = beta * (1 + float64(m)/4)
			}
			cfg.Variation = VariationParams{StructSigma: sigma, LeakSigma: sigma}
			cfg.Variation.LeakGamma = [core.NumMechanisms]float64{4, 0.6, 1, 0}
			eng, err := New(cfg, []Policy{{Name: "base", Assessment: multiCell()}})
			if err != nil {
				t.Fatal(err)
			}
			engs = append(engs, eng)
		}
	}
	return engs
}

// checkCellBounds fails t unless the exact log z of every cell of st,
// by the dense expression, lies inside [st.lo, st.hi].
func checkCellBounds(t *testing.T, e *Engine, st *shardState, lnL float64, where string) {
	t.Helper()
	var lg [numMechs]float64
	for m := range lg {
		lg[m] = math.Exp(e.cfg.Variation.LeakGamma[m] * lnL)
	}
	for c := 0; c < numCells; c++ {
		s := c / numMechs
		sv := lognormal(uniform(st.svX[s][0]), uniform(st.svX[s][1]), e.cfg.Variation.StructSigma)
		z := math.Exp(e.invBeta[c]*math.Log(-math.Log(uniform(st.lifeX[c])))) / (sv * lg[c%numMechs])
		if lz := math.Log(z); !(st.lo[c] <= lz && lz <= st.hi[c]) {
			t.Fatalf("%s cell %d: log z %v outside [%v, %v]", where, c, lz, st.lo[c], st.hi[c])
		}
	}
}

// checkSVBounds fails t unless the exact log sv of the structure draws
// x lies inside the widened interval the tables give for them.
func checkSVBounds(t *testing.T, tab *boundTables, x [2]uint64, sigma float64) {
	t.Helper()
	lo, hi := tab.logSV(x, sigma)
	if lsv := math.Log(lognormal(uniform(x[0]), uniform(x[1]), sigma)); !(lo-boundMargin <= lsv && lsv <= hi+boundMargin) {
		t.Fatalf("draws %#x sigma %v: log sv %v outside [%v, %v]", x, sigma, lsv, lo, hi)
	}
}

// TestCellBoundsContainExact checks that every cell's log z interval
// holds the dense expression's value, and every structure's log sv
// interval holds the exact lognormal's, on seeded chips and on draws
// at every bucket's first and last 53-bit value, including the draw
// that maps to u = 1.
func TestCellBoundsContainExact(t *testing.T) {
	chips := 2000
	if testing.Short() {
		chips = 200
	}
	var st shardState
	for ei, e := range boundEngines(t) {
		sigma := e.cfg.Variation.StructSigma
		for chip := 0; chip < chips; chip++ {
			lnL := e.drawChip(&st, uint64(chip))
			e.boundCells(&st, lnL)
			checkCellBounds(t, e, &st, lnL, fmt.Sprintf("engine %d chip %d", ei, chip))
			for s := range st.svX {
				checkSVBounds(t, e.tab, st.svX[s], sigma)
			}
		}

		const buckets = 1 << bucketBits
		edge := func(i int) uint64 { // even i: a bucket's first draw, odd: its last
			b := uint64(i / 2)
			if i%2 == 0 {
				return b << bucketShift
			}
			return (b+1)<<bucketShift - 1
		}
		for i := 0; i < 2*buckets; i++ {
			// Pair each edge with edges of a few other buckets in both
			// structure slots, and sweep ln L across ±9σ.
			for _, j := range []int{i, 2*buckets - 1 - i, (i + buckets) % (2 * buckets)} {
				checkSVBounds(t, e.tab, [2]uint64{edge(i), edge(j)}, sigma)
				checkSVBounds(t, e.tab, [2]uint64{edge(j), edge(i)}, sigma)
			}
			for c := range st.lifeX {
				st.lifeX[c] = edge((i + 37*c) % (2 * buckets))
			}
			for s := range st.svX {
				st.svX[s] = [2]uint64{edge((i + 101*s) % (2 * buckets)), edge((3*i + s) % (2 * buckets))}
			}
			lnL := 9 * sigma * float64(i%7-3) / 3
			e.boundCells(&st, lnL)
			checkCellBounds(t, e, &st, lnL, fmt.Sprintf("engine %d edge set %d", ei, i))
		}
	}
}

// TestSamplerEvaluatesFewCells guards the point of the bounds: on a
// full 44-cell grid under two spares, a chip evaluates only a handful
// of lifetime transforms and structure lognormals exactly.
func TestSamplerEvaluatesFewCells(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.Scenarios = []Scenario{NominalScenario(), {Name: "repair", Duty: 1, Spares: 2}}
	e, err := New(cfg, []Policy{{Name: "full", Assessment: fullGrid()}})
	if err != nil {
		t.Fatal(err)
	}
	const chips = 4096
	var st shardState
	var cells, structs int
	for chip := uint64(0); chip < chips; chip++ {
		e.boundCells(&st, e.drawChip(&st, chip))
		e.candidates(&st, &e.policies[0])
		cells += bits.OnesCount64(st.zDone)
		structs += bits.OnesCount64(st.svDone)
	}
	if c, s := float64(cells)/chips, float64(structs)/chips; c > 5 || s > 5 {
		t.Fatalf("%.2f of %d lifetime transforms and %.2f of %d structure factors evaluated per chip", c, numCells, s, numStructs)
	}
}
