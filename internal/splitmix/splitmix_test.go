package splitmix

import (
	"math"
	"testing"
)

// TestReferenceStream pins the generator to the published splitmix64
// outputs for starting state 1234567.
func TestReferenceStream(t *testing.T) {
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	r := NewStream(1234567)
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
}

// TestUniformRange checks that Uniform stays inside (0, 1], reaching 1
// only at the largest draw, and equals the division spelling
// (x+½)/2^53 bit for bit.
func TestUniformRange(t *testing.T) {
	r := NewStream(Mix64(42))
	shadow := r
	for i := 0; i < 1_000_000; i++ {
		u := r.Uniform()
		if !(u > 0 && u <= 1) {
			t.Fatalf("draw %d = %v outside (0, 1]", i, u)
		}
		if v := (float64(shadow.Next()>>11) + 0.5) / (1 << 53); math.Float64bits(u) != math.Float64bits(v) {
			t.Fatalf("draw %d: %v differs from the division spelling %v", i, u, v)
		}
	}
	if u := (float64(uint64(0)) + 0.5) * (1.0 / (1 << 53)); u <= 0 {
		t.Fatal("smallest draw is not positive")
	}
	if u := (float64(^uint64(0)>>11) + 0.5) * (1.0 / (1 << 53)); u != 1 {
		t.Fatalf("largest draw = %v, want 1", u)
	}
	if u := (float64(^uint64(0)>>11-1) + 0.5) * (1.0 / (1 << 53)); u >= 1 {
		t.Fatalf("second-largest draw = %v, want below 1", u)
	}
}

// TestIntnRange checks that Intn covers [0, n) and nothing else.
func TestIntnRange(t *testing.T) {
	r := NewStream(7)
	var seen [5]int
	for i := 0; i < 10_000; i++ {
		k := r.Intn(len(seen))
		if k < 0 || k >= len(seen) {
			t.Fatalf("Intn(%d) = %d", len(seen), k)
		}
		seen[k]++
	}
	for k, n := range seen {
		if n == 0 {
			t.Fatalf("Intn never drew %d", k)
		}
	}
}
