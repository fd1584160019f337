package sim

import (
	"math/bits"

	"ramp/internal/config"
)

// Cache is a set-associative cache with true-LRU replacement. It is a
// timing-only model: it tracks tags, not data.
type Cache struct {
	tags  []uint64 // sets*assoc entries; tag 0 with valid bit packed separately
	valid []bool
	lru   []uint64 // per-entry access stamps

	assoc    int
	setShift uint // line-offset bits
	setMask  uint64
	setBits  int
	stamp    uint64
	accesses uint64
	misses   uint64
}

// NewCache builds a cache from a config. Sizes must be powers of two.
func NewCache(cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("sim: cache set count must be a positive power of two")
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("sim: cache line size must be a power of two")
	}
	n := sets * cfg.Assoc
	return &Cache{
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		lru:      make([]uint64, n),
		assoc:    cfg.Assoc,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		setBits:  bits.Len64(uint64(sets - 1)),
	}
}

// Reset invalidates every line and clears the access counters, restoring
// the cache to its just-constructed state without reallocating. Tags and
// LRU stamps of invalidated entries are left in place: lookups and
// victim selection only consult them for valid entries, so subsequent
// behaviour is bit-identical to a fresh cache.
func (c *Cache) Reset() {
	clear(c.valid)
	c.stamp = 0
	c.accesses = 0
	c.misses = 0
}

// Line returns the line address (address with offset bits stripped).
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.setShift }

// Access looks up addr; on a miss with allocate set it installs the line,
// evicting the set's LRU entry. It reports whether the access hit.
func (c *Cache) Access(addr uint64, allocate bool) bool {
	c.accesses++
	c.stamp++
	line := addr >> c.setShift
	set := int(line&c.setMask) * c.assoc
	tag := line >> c.setBits

	victim := set
	for i := set; i < set+c.assoc; i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.stamp
			return true
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.misses++
	if allocate {
		c.tags[victim] = tag
		c.valid[victim] = true
		c.lru[victim] = c.stamp
	}
	return false
}

// Contains reports whether addr's line is present without touching LRU or
// counters.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.setShift
	set := int(line&c.setMask) * c.assoc
	tag := line >> c.setBits
	for i := set; i < set+c.assoc; i++ {
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.misses }

// mshrFile models a bank of miss-status holding registers: outstanding
// line misses with their fill-completion cycles. Misses to a line that is
// already outstanding coalesce onto the existing entry.
type mshrFile struct {
	lines []uint64
	ready []uint64
	max   int
}

func newMSHRFile(n int) *mshrFile {
	m := &mshrFile{}
	m.reset(n)
	return m
}

// reset empties the file and re-sizes it, keeping its backing arrays
// when they can hold n entries. The arrays are sized up front so that
// add never grows them.
func (m *mshrFile) reset(n int) {
	if cap(m.lines) < n {
		m.lines = make([]uint64, 0, n)
		m.ready = make([]uint64, 0, n)
	}
	m.lines = m.lines[:0]
	m.ready = m.ready[:0]
	m.max = n
}

// prune drops entries whose fills have completed.
func (m *mshrFile) prune(now uint64) {
	out := 0
	for i, r := range m.ready {
		if r > now {
			m.lines[out] = m.lines[i]
			m.ready[out] = r
			out++
		}
	}
	m.lines = m.lines[:out]
	m.ready = m.ready[:out]
}

// lookup returns the fill-completion cycle for line if it is outstanding.
func (m *mshrFile) lookup(line uint64) (uint64, bool) {
	for i, l := range m.lines {
		if l == line {
			return m.ready[i], true
		}
	}
	return 0, false
}

// full reports whether all MSHRs are occupied at cycle now.
func (m *mshrFile) full(now uint64) bool {
	m.prune(now)
	return len(m.lines) >= m.max
}

// add allocates an MSHR for line, filling at cycle ready.
func (m *mshrFile) add(line, ready uint64) {
	m.lines = append(m.lines, line)
	m.ready = append(m.ready, ready)
}
