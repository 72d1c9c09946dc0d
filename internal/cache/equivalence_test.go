package cache

// Equivalence guard for the flattened lookup path. refCache below is a
// line-for-line port of the straightforward implementation this package
// shipped with (per-set slices, tag shift recomputed on every access, no
// MRU shortcut). The optimized Cache must agree with it on every
// observable: the hit/miss outcome of each access, the running Stats, the
// Random policy's victim stream, and the final contents. A randomized
// million-access trace with occasional flushes exercises hits, misses,
// invalid-way fills, dirty castouts and both replacement policies.

import (
	"testing"

	"repro/internal/rng"
)

// refLine / refCache: the reference (pre-optimization) implementation.
type refLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

type refCache struct {
	cfg       Config
	sets      [][]refLine
	setMask   uint64
	lineShift uint
	stats     Stats
	tick      uint64
	rndState  uint64
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	sets := make([][]refLine, nsets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &refCache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(nsets - 1),
		lineShift: shift,
		rndState:  0x9e3779b97f4a7c15,
	}
}

func (c *refCache) index(addr uint64) (set uint64, tag uint64) {
	return (addr >> c.lineShift) & c.setMask,
		addr >> (c.lineShift + refLog2(uint64(len(c.sets))))
}

func refLog2(n uint64) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}

func (c *refCache) nextRnd() uint64 {
	x := c.rndState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rndState = x
	return x
}

func (c *refCache) Access(addr uint64, isStore bool) bool {
	c.tick++
	setIdx, tag := c.index(addr)
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.tick
			if isStore {
				set[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}

	c.stats.Misses++
	if isStore && !c.cfg.WriteAllocate {
		return false
	}

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

	set[victim] = refLine{tag: tag, valid: true, dirty: isStore, lastUse: c.tick}
	c.stats.Reloads++
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// TestOptimizedCacheEquivalence drives the optimized Cache and the
// reference in lockstep over a randomized trace and demands bit-identical
// observables at every step.
func TestOptimizedCacheEquivalence(t *testing.T) {
	const accesses = 1_000_000

	configs := []struct {
		name string
		cfg  Config
	}{
		{"lru-dcache", Config{SizeBytes: 16 << 10, LineBytes: 256, Ways: 4, Policy: LRU, WriteAllocate: true}},
		{"random-dcache", Config{SizeBytes: 16 << 10, LineBytes: 256, Ways: 4, Policy: Random, WriteAllocate: true}},
		{"lru-no-allocate", Config{SizeBytes: 8 << 10, LineBytes: 128, Ways: 2, Policy: LRU, WriteAllocate: false}},
		{"random-direct", Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 1, Policy: Random, WriteAllocate: true}},
	}

	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			opt := New(tc.cfg)
			ref := newRefCache(tc.cfg)
			src := rng.New(0xcac4e + uint64(len(tc.name)))

			// Mix of strided sweeps (MRU-friendly) and random jumps
			// (MRU-hostile) over a footprint a few times the cache size,
			// so both the fast path and the full scan-and-evict paths run.
			footprint := uint64(tc.cfg.SizeBytes) * 4
			var addr uint64
			for i := 0; i < accesses; i++ {
				r := src.Uint64()
				switch r % 8 {
				case 0, 1, 2: // sequential walk
					addr += 8
				case 3, 4: // stay on the current line
					addr ^= r & 0x38
				default: // random jump
					addr = r % footprint
				}
				a := addr % footprint
				isStore := r&(1<<40) != 0

				oh := opt.Access(a, isStore)
				rh := ref.Access(a, isStore)
				if oh != rh {
					t.Fatalf("access %d addr %#x store=%v: optimized hit=%v reference hit=%v", i, a, isStore, oh, rh)
				}
				if opt.Stats() != ref.stats {
					t.Fatalf("access %d: stats diverged: optimized %+v reference %+v", i, opt.Stats(), ref.stats)
				}
				if opt.rndState != ref.rndState {
					t.Fatalf("access %d: random-policy victim streams diverged", i)
				}
			}

			// Final contents must agree: probe every line-aligned address in
			// the footprint.
			for a := uint64(0); a < footprint; a += uint64(tc.cfg.LineBytes) {
				if opt.Contains(a) != ref.Contains(a) {
					t.Fatalf("final contents diverged at %#x: optimized=%v reference=%v", a, opt.Contains(a), ref.Contains(a))
				}
			}
		})
	}
}
