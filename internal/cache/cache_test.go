package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// sp2DCache builds the NAS SP2 data-cache geometry from the paper.
func sp2DCache() *Cache {
	return New(Config{
		SizeBytes:     units.DCacheBytes,
		LineBytes:     units.DCacheLineBytes,
		Ways:          units.DCacheWays,
		Policy:        LRU,
		WriteAllocate: true,
	})
}

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 256 * 1024, LineBytes: 256, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 256, Ways: 4},
		{SizeBytes: 256 * 1024, LineBytes: 0, Ways: 4},
		{SizeBytes: 256 * 1024, LineBytes: 256, Ways: 0},
		{SizeBytes: 256 * 1024, LineBytes: 255, Ways: 4},  // non power-of-two line
		{SizeBytes: 255 * 1024, LineBytes: 256, Ways: 4},  // size not divisible
		{SizeBytes: 3 * 256 * 4, LineBytes: 256, Ways: 4}, // sets not power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 1, LineBytes: 3, Ways: 1})
}

func TestSP2Geometry(t *testing.T) {
	c := sp2DCache()
	// Paper: 1024 lines total, 4-way => 256 sets.
	if sets := c.setMask + 1; sets != 256 {
		t.Fatalf("sets = %d, want 256", sets)
	}
}

func TestMissThenHit(t *testing.T) {
	c := sp2DCache()
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x10FF, false) {
		t.Fatal("same-line access missed") // 256-byte line covers 0x1000..0x10FF
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Reloads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSequentialScanMissesEvery32Elements(t *testing.T) {
	// The paper's thought experiment: sequentially accessing real*8 data
	// misses once every 32 elements (256-byte line / 8-byte element).
	c := sp2DCache()
	const n = 32 * 1024
	for i := 0; i < n; i++ {
		c.Access(uint64(i*8), false)
	}
	st := c.Stats()
	wantMisses := uint64(n / 32)
	if st.Misses != wantMisses {
		t.Fatalf("misses = %d, want %d", st.Misses, wantMisses)
	}
	ratio := float64(st.Misses) / float64(st.Hits+st.Misses)
	if ratio < 0.031 || ratio > 0.032 {
		t.Fatalf("sequential miss ratio = %v, want ~0.03125", ratio)
	}
}

func TestCacheResidentWorkingSetHits(t *testing.T) {
	// A working set that fits in 256 KB must hit ~100% after warm-up.
	c := sp2DCache()
	const ws = 128 * 1024
	for pass := 0; pass < 4; pass++ {
		for a := 0; a < ws; a += 8 {
			c.Access(uint64(a), false)
		}
	}
	st := c.Stats()
	if st.Misses != ws/units.DCacheLineBytes {
		t.Fatalf("resident working set remissed: misses=%d want %d", st.Misses, ws/units.DCacheLineBytes)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Tiny cache: 2 sets x 2 ways x 16-byte lines = 64 bytes.
	c := New(Config{SizeBytes: 64, LineBytes: 16, Ways: 2, Policy: LRU, WriteAllocate: true})
	// All in set 0: addresses multiples of 32.
	c.Access(0x000, false) // A
	c.Access(0x020, false) // B
	c.Access(0x000, false) // touch A; B is now LRU
	c.Access(0x040, false) // C evicts B
	if !c.Contains(0x000) {
		t.Fatal("A evicted, want B")
	}
	if c.Contains(0x020) {
		t.Fatal("B survived, want evicted")
	}
	if !c.Contains(0x040) {
		t.Fatal("C missing")
	}
}

func TestDirtyCastout(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 16, Ways: 2, Policy: LRU, WriteAllocate: true})
	c.Access(0x000, true)  // dirty A
	c.Access(0x020, false) // clean B
	c.Access(0x040, false) // evicts A (LRU) -> castout
	st := c.Stats()
	if st.Castouts != 1 {
		t.Fatalf("castouts = %d, want 1", st.Castouts)
	}
	// Evicting the clean line must not cast out.
	c.Access(0x060, false) // evicts B
	if c.Stats().Castouts != 1 {
		t.Fatalf("clean eviction cast out: %+v", c.Stats())
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 16, Ways: 2, Policy: LRU, WriteAllocate: true})
	c.Access(0x000, false) // clean fill
	c.Access(0x000, true)  // store hit dirties it
	c.Access(0x020, false)
	c.Access(0x040, false) // evict A
	if c.Stats().Castouts != 1 {
		t.Fatalf("store-hit line not cast out: %+v", c.Stats())
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 16, Ways: 2, Policy: LRU, WriteAllocate: false})
	c.Access(0x000, true) // store miss: no fill
	if c.Contains(0x000) {
		t.Fatal("store miss filled line despite no-write-allocate")
	}
	if c.Stats().Reloads != 0 {
		t.Fatalf("reloads = %d, want 0", c.Stats().Reloads)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := sp2DCache()
	c.Access(0x1000, false)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("ResetStats flushed contents")
	}
}

func TestRandomPolicyStillCaches(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 16, Ways: 2, Policy: Random, WriteAllocate: true})
	c.Access(0x000, false)
	if !c.Access(0x000, false) {
		t.Fatal("random-policy cache did not hit on re-reference")
	}
	// Conflict beyond associativity must still evict exactly one line.
	c.Access(0x020, false)
	c.Access(0x040, false)
	resident := 0
	for _, a := range []uint64{0x000, 0x020, 0x040} {
		if c.Contains(a) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("resident = %d, want 2 (one eviction)", resident)
	}
}

func TestConservationProperty(t *testing.T) {
	// Hits + Misses == Accesses, and Reloads <= Misses, for random traces.
	f := func(addrs []uint16, stores []bool) bool {
		c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 2, Policy: LRU, WriteAllocate: true})
		for i, a := range addrs {
			isStore := i < len(stores) && stores[i]
			c.Access(uint64(a), isStore)
		}
		st := c.Stats()
		return st.Hits+st.Misses == uint64(len(addrs)) && st.Reloads <= st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAssociativityConflictProperty(t *testing.T) {
	// K distinct lines mapping to one set, K <= ways: second pass all hits.
	c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, Policy: LRU, WriteAllocate: true})
	sets := int(c.setMask + 1)
	stride := uint64(sets * 64) // same set each time
	for k := 0; k < 4; k++ {
		c.Access(uint64(k)*stride, false)
	}
	c.ResetStats()
	for k := 0; k < 4; k++ {
		if !c.Access(uint64(k)*stride, false) {
			t.Fatalf("way %d evicted within associativity", k)
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := sp2DCache()
	c.Access(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false)
	}
}

func BenchmarkAccessStreaming(b *testing.B) {
	c := sp2DCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*8, false)
	}
}
