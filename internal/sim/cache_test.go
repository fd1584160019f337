package sim

import (
	"testing"

	"ramp/internal/config"
)

func smallCache() *Cache {
	return NewCache(config.CacheConfig{
		SizeBytes: 1024, Assoc: 2, LineBytes: 64, Ports: 1, MSHRs: 4,
	}) // 8 sets x 2 ways
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x100, true) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x100, true) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x13f, true) {
		t.Fatal("same-line access missed")
	}
	if c.Accesses() != 3 || c.Misses() != 1 {
		t.Fatalf("counters: %d accesses %d misses", c.Accesses(), c.Misses())
	}
}

func TestCacheNoAllocate(t *testing.T) {
	c := smallCache()
	c.Access(0x100, false)
	if c.Contains(0x100) {
		t.Fatal("no-allocate access installed the line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (set stride = 8 sets * 64B = 512B).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, true)
	c.Access(b, true)
	c.Access(a, true) // a is now MRU
	c.Access(d, true) // evicts b (LRU)
	if !c.Contains(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(d) {
		t.Fatal("newly installed line missing")
	}
}

func TestCacheMissRate(t *testing.T) {
	c := smallCache()
	if c.Accesses() != 0 || c.Misses() != 0 {
		t.Fatal("fresh cache has counted accesses")
	}
	c.Access(0, true)
	c.Access(0, true)
	if c.Accesses() != 2 || c.Misses() != 1 {
		t.Fatalf("%d misses in %d accesses, want 1 in 2", c.Misses(), c.Accesses())
	}
}

func TestCacheLine(t *testing.T) {
	c := smallCache()
	if c.Line(0) != c.Line(63) {
		t.Fatal("same-line addresses differ")
	}
	if c.Line(0) == c.Line(64) {
		t.Fatal("different lines collide")
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two sets")
		}
	}()
	NewCache(config.CacheConfig{SizeBytes: 1000, Assoc: 2, LineBytes: 64})
}

func TestMSHRCoalesceAndFull(t *testing.T) {
	m := newMSHRFile(2)
	if m.full(0) {
		t.Fatal("empty MSHR file reported full")
	}
	m.add(10, 100)
	m.add(11, 120)
	if !m.full(0) {
		t.Fatal("2-entry file with 2 misses should be full")
	}
	if ready, ok := m.lookup(10); !ok || ready != 100 {
		t.Fatalf("lookup(10) = %v %v", ready, ok)
	}
	if _, ok := m.lookup(99); ok {
		t.Fatal("lookup found absent line")
	}
	// At cycle 100 the first fill completed; one slot frees.
	if m.full(100) {
		t.Fatal("expired entry not pruned")
	}
	if len(m.lines) != 1 {
		t.Fatalf("occupancy = %d, want 1", len(m.lines))
	}
	if m.full(200) {
		t.Fatal("all entries should have expired")
	}
	if len(m.lines) != 0 {
		t.Fatal("occupancy should be 0")
	}
}
