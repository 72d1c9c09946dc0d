// Package cache implements the set-associative caches of the RS6000/590
// node: the 256 KB four-way data cache (1024 lines of 256 bytes) and the
// instruction cache. The model tracks exactly the events the SCU counters
// report — reloads from memory, and castouts of modified lines back to
// memory (the paper's user.dcache_reload and user.dcache_store events).
package cache

import "fmt"

// Replacement selects the victim policy for a set.
type Replacement uint8

// Replacement policies. LRU is the POWER2 behaviour; Random exists for the
// ablation bench called out in DESIGN.md.
const (
	LRU Replacement = iota
	Random
)

// Config describes a cache geometry.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Policy    Replacement
	// WriteAllocate controls whether a store miss fills the line (the
	// POWER2 D-cache is store-in / write-allocate).
	WriteAllocate bool
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / c.LineBytes / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats accumulates the monitor-visible cache events.
type Stats struct {
	Hits     uint64
	Misses   uint64
	Reloads  uint64 // lines brought in from memory (== misses for this model)
	Castouts uint64 // modified lines written back on eviction
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lastUse orders lines for LRU within a set.
	lastUse uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use; each
// simulated node owns its caches.
//
// The lookup path is on the CPU model's per-instruction critical path
// (every fetch goes through the I-cache, every storage reference through
// the D-cache), so the layout is flattened: one backing array indexed by
// set*ways, both address shifts precomputed at construction, and a per-set
// MRU way checked before the associative scan. None of this changes any
// observable behaviour — hits, misses, LRU ordering, victim choices and
// the Random policy's xorshift stream are bit-identical to the
// straightforward implementation (pinned by TestOptimizedCacheEquivalence).
type Cache struct {
	cfg   Config
	lines []line // nsets*ways, set s occupying [s*ways, (s+1)*ways)
	ways  int

	setMask   uint64
	lineShift uint // address -> line address
	tagShift  uint // address -> tag, lineShift + log2(nsets), computed once

	// mru holds each set's most-recently-hit (or -filled) way; -1 when the
	// set has never been touched. Purely an access accelerator: checking it
	// first gives the same hit the scan would find.
	mru []int16

	stats Stats
	tick  uint64
	// rndState is a tiny xorshift for the Random policy ablation.
	rndState uint64
}

// New builds a cache with the given geometry; it panics on an invalid
// configuration (geometry is fixed at construction, so this is a programming
// error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	lineShift := uintLog2(uint64(cfg.LineBytes))
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*cfg.Ways),
		ways:      cfg.Ways,
		setMask:   uint64(nsets - 1),
		lineShift: lineShift,
		tagShift:  lineShift + uintLog2(uint64(nsets)),
		mru:       make([]int16, nsets),
		rndState:  0x9e3779b97f4a7c15,
	}
	for i := range c.mru {
		c.mru[i] = -1
	}
	return c
}

// Stats returns the accumulated event counts.
func (c *Cache) Stats() Stats { return c.stats }

// Castouts returns the castout count alone, without copying the whole
// Stats struct (the CPU model reads it around every D-cache access).
func (c *Cache) Castouts() uint64 { return c.stats.Castouts }

// ResetStats zeroes the event counts without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func uintLog2(n uint64) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}

func (c *Cache) nextRnd() uint64 {
	x := c.rndState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rndState = x
	return x
}

// Access performs a reference to addr. isStore marks a write. It returns
// true on a hit. On a miss the line is reloaded (subject to the
// write-allocate setting) and a modified victim is cast out.
func (c *Cache) Access(addr uint64, isStore bool) bool {
	c.tick++
	setIdx := (addr >> c.lineShift) & c.setMask
	tag := addr >> c.tagShift
	set := c.lines[setIdx*uint64(c.ways) : (setIdx+1)*uint64(c.ways)]

	// MRU fast path: most references hit the way they hit last time
	// (sequential sweeps and tight loops revisit the same line), so check
	// it before scanning the set.
	if m := c.mru[setIdx]; m >= 0 {
		if l := &set[m]; l.valid && l.tag == tag {
			l.lastUse = c.tick
			if isStore {
				l.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.tick
			if isStore {
				set[i].dirty = true
			}
			c.mru[setIdx] = int16(i)
			c.stats.Hits++
			return true
		}
	}

	c.stats.Misses++
	if isStore && !c.cfg.WriteAllocate {
		// Write-through-no-allocate: the store goes to memory, no fill.
		return false
	}

	// Choose a victim: first invalid way, else policy.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		switch c.cfg.Policy {
		case Random:
			victim = int(c.nextRnd() % uint64(len(set)))
		default: // LRU
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].lastUse < set[victim].lastUse {
					victim = i
				}
			}
		}
		if set[victim].dirty {
			c.stats.Castouts++
		}
	}

	set[victim] = line{tag: tag, valid: true, dirty: isStore, lastUse: c.tick}
	c.mru[setIdx] = int16(victim)
	c.stats.Reloads++
	return false
}

// Contains reports whether addr currently hits without touching any state
// or statistics (a probe for tests).
func (c *Cache) Contains(addr uint64) bool {
	setIdx, tag := (addr>>c.lineShift)&c.setMask, addr>>c.tagShift
	set := c.lines[setIdx*uint64(c.ways) : (setIdx+1)*uint64(c.ways)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}
