package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func sp2TLB() *TLB {
	return New(Config{Entries: units.TLBEntries, Ways: units.TLBWays, PageBytes: units.PageBytes})
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Entries: 512, Ways: 2, PageBytes: 4096}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Entries: 0, Ways: 2, PageBytes: 4096},
		{Entries: 512, Ways: 0, PageBytes: 4096},
		{Entries: 512, Ways: 2, PageBytes: 0},
		{Entries: 512, Ways: 3, PageBytes: 4096}, // not divisible
		{Entries: 512, Ways: 2, PageBytes: 4095}, // page not power of two
		{Entries: 384, Ways: 2, PageBytes: 4096}, // sets not power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Entries: 1, Ways: 2, PageBytes: 4096})
}

func TestMissThenHitWithinPage(t *testing.T) {
	tb := sp2TLB()
	if tb.Translate(0x1000) {
		t.Fatal("cold translation hit")
	}
	if !tb.Translate(0x1FFF) {
		t.Fatal("same-page translation missed")
	}
	if tb.Translate(0x2000) {
		t.Fatal("next-page translation hit")
	}
	st := tb.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSequentialScanMissesEvery512Elements(t *testing.T) {
	// Paper: for real*8 data, a TLB miss every 512 elements (4096/8).
	tb := sp2TLB()
	const n = 512 * 256
	for i := 0; i < n; i++ {
		tb.Translate(uint64(i * 8))
	}
	st := tb.Stats()
	if st.Misses != n/512 {
		t.Fatalf("misses = %d, want %d", st.Misses, n/512)
	}
	ratio := float64(st.Misses) / float64(st.Hits+st.Misses)
	if ratio < 0.0019 || ratio > 0.0020 {
		t.Fatalf("sequential TLB miss ratio = %v, want ~0.00195", ratio)
	}
}

func TestCapacityReach(t *testing.T) {
	// 512 pages fit; sweeping them twice gives hits on the second pass.
	tb := sp2TLB()
	for p := 0; p < 512; p++ {
		tb.Translate(uint64(p * units.PageBytes))
	}
	tb.ResetStats()
	for p := 0; p < 512; p++ {
		if !tb.Translate(uint64(p * units.PageBytes)) {
			t.Fatalf("page %d evicted within capacity", p)
		}
	}
}

func TestLargeStrideThrashes(t *testing.T) {
	// Strides of one page per element (the paper's "large memory strides"
	// warning): every reference a new page, miss ratio near 1 on first touch.
	tb := sp2TLB()
	const n = 2048
	for i := 0; i < n; i++ {
		tb.Translate(uint64(i * units.PageBytes * 2))
	}
	st := tb.Stats()
	if got := float64(st.Misses) / float64(st.Hits+st.Misses); got < 0.99 {
		t.Fatalf("large-stride miss ratio = %v, want ~1", got)
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := New(Config{Entries: 4, Ways: 2, PageBytes: 4096}) // 2 sets
	// Pages 0, 2, 4 all map to set 0 (vpn & 1 == 0).
	tb.Translate(0 * 4096)
	tb.Translate(2 * 4096)
	tb.Translate(0 * 4096) // touch page 0
	tb.Translate(4 * 4096) // evicts page 2
	if !tb.Contains(0) {
		t.Fatal("page 0 evicted, want page 2")
	}
	if tb.Contains(2 * 4096) {
		t.Fatal("page 2 survived")
	}
}

func TestStatsConservationProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		tb := New(Config{Entries: 16, Ways: 2, PageBytes: 4096})
		for _, a := range addrs {
			tb.Translate(uint64(a))
		}
		st := tb.Stats()
		return st.Hits+st.Misses == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatTranslationAlwaysHitsProperty(t *testing.T) {
	f := func(addr uint32) bool {
		tb := New(Config{Entries: 16, Ways: 2, PageBytes: 4096})
		tb.Translate(uint64(addr))
		return tb.Translate(uint64(addr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslateHit(b *testing.B) {
	tb := sp2TLB()
	tb.Translate(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Translate(0x1000)
	}
}
