package cache

// Property tests over randomized geometries and traces. The fixed-config
// equivalence suite pins the POWER2 shapes; these widen the net: for any
// valid geometry, the accounting identity hits+misses == accesses holds,
// and the MRU fast path agrees with the plain associative scan on every
// access.

import (
	"testing"

	"repro/internal/rng"
)

// randomGeometry draws a valid configuration: power-of-two line size and
// set count, any way count, either policy.
func randomGeometry(r *rng.Source) Config {
	line := 1 << r.IntRange(4, 8)
	ways := []int{1, 2, 3, 4, 8}[r.Intn(5)]
	sets := 1 << r.IntRange(0, 6)
	return Config{
		SizeBytes:     sets * ways * line,
		LineBytes:     line,
		Ways:          ways,
		Policy:        Replacement(r.Intn(2)),
		WriteAllocate: r.Bool(0.5),
	}
}

// step advances a trace address the way the equivalence suite does: mostly
// sequential with line-local jitter, sometimes a random jump.
func step(r *rng.Source, addr, footprint uint64) uint64 {
	switch v := r.Uint64(); v % 8 {
	case 0, 1, 2:
		return addr + 8
	case 3, 4:
		return addr ^ (v & 0x38)
	default:
		return v % footprint
	}
}

func TestPropertyCacheStatsBalance(t *testing.T) {
	r := rng.New(0xba1a)
	for trial := 0; trial < 60; trial++ {
		cfg := randomGeometry(r)
		c := New(cfg)
		footprint := uint64(cfg.SizeBytes) * 4
		const accesses = 3000
		var addr uint64
		for i := 0; i < accesses; i++ {
			addr = step(r, addr, footprint)
			c.Access(addr%footprint, r.Bool(0.3))
		}
		s := c.Stats()
		if s.Hits+s.Misses != accesses {
			t.Fatalf("trial %d %+v: hits %d + misses %d != %d accesses", trial, cfg, s.Hits, s.Misses, accesses)
		}
		if s.Reloads > s.Misses {
			t.Fatalf("trial %d %+v: %d reloads exceed %d misses", trial, cfg, s.Reloads, s.Misses)
		}
		if cfg.WriteAllocate && s.Reloads != s.Misses {
			t.Fatalf("trial %d %+v: write-allocate cache reloaded %d of %d misses", trial, cfg, s.Reloads, s.Misses)
		}
		if ratio := float64(s.Misses) / float64(s.Hits+s.Misses); ratio < 0 || ratio > 1 {
			t.Fatalf("trial %d: miss ratio %v out of [0,1]", trial, ratio)
		}
	}
}

// TestPropertyMRUFastPathEquivalence checks the MRU shortcut against the
// reference scan-only port for random geometries: identical hit/miss on
// every access, identical stats throughout, identical victim stream under
// the Random policy.
func TestPropertyMRUFastPathEquivalence(t *testing.T) {
	r := rng.New(0xfa57)
	for trial := 0; trial < 40; trial++ {
		cfg := randomGeometry(r)
		opt := New(cfg)
		ref := newRefCache(cfg)
		footprint := uint64(cfg.SizeBytes) * 4
		var addr uint64
		for i := 0; i < 5000; i++ {
			addr = step(r, addr, footprint)
			a := addr % footprint
			isStore := r.Bool(0.3)
			if oh, rh := opt.Access(a, isStore), ref.Access(a, isStore); oh != rh {
				t.Fatalf("trial %d %+v access %d addr %#x: MRU path hit=%v, scan hit=%v", trial, cfg, i, a, oh, rh)
			}
			if opt.Stats() != ref.stats {
				t.Fatalf("trial %d %+v access %d: stats diverged: %+v vs %+v", trial, cfg, i, opt.Stats(), ref.stats)
			}
		}
		if opt.rndState != ref.rndState {
			t.Fatalf("trial %d %+v: random victim streams diverged", trial, cfg)
		}
		// Contents agree: probe a sample of the footprint.
		for i := 0; i < 200; i++ {
			a := r.Uint64() % footprint
			if opt.Contains(a) != ref.Contains(a) {
				t.Fatalf("trial %d %+v: contents diverged at %#x", trial, cfg, a)
			}
		}
	}
}
