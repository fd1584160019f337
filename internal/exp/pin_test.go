package exp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/trace"
)

// The tests in this file pin RAMP's output bit for bit. The expected
// digest was recorded before requalification was restructured; any
// change to it means the reliability model moved, not merely its speed.

// assessmentBits lists the bit pattern of every Assessment field in
// declaration order (floats by their IEEE-754 bits).
func assessmentBits(a core.Assessment) []uint64 {
	var out []uint64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int:
			out = append(out, uint64(v.Int()))
		case reflect.Float64:
			out = append(out, math.Float64bits(v.Float()))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic("assessmentBits: unhandled field kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(a))
	return out
}

// hashAssessment folds every Assessment field's bits into h.
func hashAssessment(h hash.Hash64, a core.Assessment) {
	var buf [8]byte
	for _, u := range assessmentBits(a) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
}

// sameAssessment fails t unless a and b agree bit for bit in every field.
func sameAssessment(t *testing.T, label string, a, b core.Assessment) {
	t.Helper()
	ab, bb := assessmentBits(a), assessmentBits(b)
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("%s: assessment word %d differs: %#x vs %#x\n%+v\n%+v", label, i, ab[i], bb[i], a, b)
		}
	}
}

// digestConfigs is the base machine, the 18 Arch configurations and the
// six DVS points of the 0.5 GHz grid; under -short, the base machine,
// one Arch configuration and the slowest DVS point.
func digestConfigs(base config.Proc) []config.Proc {
	archs := config.ArchConfigs()
	freqs := config.DVSFrequencies(0.5e9)
	if testing.Short() {
		return []config.Proc{base, archs[10], base.WithOperatingPoint(freqs[0])}
	}
	out := append([]config.Proc{base}, archs...)
	for _, f := range freqs {
		out = append(out, base.WithOperatingPoint(f))
	}
	return out
}

// TestRequalifyDigest evaluates every application on the base machine,
// the Arch space and the DVS grid once at T_qual = 400 K, requalifies
// each result at 325, 330, ..., 400 K and hashes every assessment.
func TestRequalifyDigest(t *testing.T) {
	const (
		wantFull  = uint64(0xd0ca69e6a873ec65)
		wantShort = uint64(0x4678dec1367f4979)
	)
	env := quickEnv()
	q400 := env.Qualification(400)
	var jobs []EvalJob
	for _, app := range trace.Apps() {
		for _, proc := range digestConfigs(env.Base) {
			jobs = append(jobs, EvalJob{App: app, Proc: proc, Qual: q400})
		}
	}
	results, err := env.EvaluateAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range results {
		for tq := 325.0; tq <= 400; tq += 5 {
			a, err := env.Requalify(r, env.Qualification(tq))
			if err != nil {
				t.Fatal(err)
			}
			hashAssessment(h, a)
		}
	}
	want := wantFull
	if testing.Short() {
		want = wantShort
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Requalify digest = %#x, want %#x: RAMP output changed", got, want)
	}
}
