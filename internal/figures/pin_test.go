package figures

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"ramp/internal/drm"
	"ramp/internal/exp"
	"ramp/internal/trace"
)

// The tests in this file pin, bit for bit, the outputs no golden file
// covers: the technology-scaling study (the only evaluation on scaled
// floorplans), the reactive controller's per-epoch traces (the online
// leakage fixed point) and the manycore policy sweep (the tiled die).
// A changed digest means the model moved, not merely its speed.

// hashValue folds every field of v into h in declaration order:
// floats by their IEEE-754 bits, integers and booleans by value, and
// slices element by element behind their length.
func hashValue(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int:
		put(uint64(v.Int()))
	case reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic("hashValue: unhandled kind " + v.Kind().String())
	}
}

// digest hashes every field of v with FNV-1a.
func digest(v any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

// TestScalingStudyDigest pins every ScalingRow field of the quick
// technology ladder: four scaled floorplans, each with its own thermal
// network.
func TestScalingStudyDigest(t *testing.T) {
	const want = uint64(0x2ab836ec649baaf2)
	rows, err := ScalingStudy(exp.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(rows); got != want {
		t.Fatalf("ScalingStudy digest = %#x, want %#x: scaled-floorplan results changed", got, want)
	}
}

// TestControllerTraceDigest pins both reactive policies' full control
// traces on MP3dec at T_qual = 345 K, where both throttle: every epoch
// goes through Env.EpochConditions at a new operating point.
func TestControllerTraceDigest(t *testing.T) {
	const want = uint64(0xed03c676b8e8b433)
	env := exp.NewEnv(exp.QuickOptions())
	h := fnv.New64a()
	for _, policy := range []drm.ControlPolicy{drm.Instantaneous, drm.Banked} {
		c := drm.NewController(env, env.Qualification(345), policy)
		tr, err := c.Run(trace.MP3dec(), 16)
		if err != nil {
			t.Fatal(err)
		}
		hashValue(h, reflect.ValueOf(tr))
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("controller trace digest = %#x, want %#x: reactive control results changed", got, want)
	}
}

// TestManycoreSweepDigest pins the policy sweep over one-, two- and
// four-core dies with four scheduling epochs each.
func TestManycoreSweepDigest(t *testing.T) {
	const want = uint64(0x5d2cca88c3cbd9fb)
	env := exp.NewEnv(exp.QuickOptions())
	table, err := ManycoreSweepEpochs(env, []int{1, 2, 4}, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(table); got != want {
		t.Fatalf("ManycoreSweep digest = %#x, want %#x: manycore results changed", got, want)
	}
}
