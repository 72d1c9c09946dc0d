package tlb

// Property tests for the TLB: the accounting identity hits+misses ==
// translations over random geometries, and the last-entry memo checked
// against a memo-free port — the shortcut may never change a hit into a
// miss, a miss count, or the LRU victim ordering.

import (
	"testing"

	"repro/internal/rng"
)

// refTLB is the memo-free port of the TLB: the same set scan and LRU
// victim choice, without the last-entry shortcut.
type refTLB struct {
	sets      [][]entry
	setMask   uint64
	pageShift uint
	stats     Stats
	tick      uint64
}

func newRefTLB(cfg Config) *refTLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Entries / cfg.Ways
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, cfg.Ways)
	}
	shift := uint(0)
	for 1<<shift != cfg.PageBytes {
		shift++
	}
	return &refTLB{sets: sets, setMask: uint64(nsets - 1), pageShift: shift}
}

func (t *refTLB) Translate(addr uint64) bool {
	t.tick++
	vpn := addr >> t.pageShift
	set := t.sets[vpn&t.setMask]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lastUse = t.tick
			t.stats.Hits++
			return true
		}
	}
	t.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = entry{vpn: vpn, valid: true, lastUse: t.tick}
	return false
}

// randomGeometry draws a valid TLB configuration.
func randomGeometry(r *rng.Source) Config {
	ways := []int{1, 2, 4, 8}[r.Intn(4)]
	sets := 1 << r.IntRange(0, 7)
	return Config{
		Entries:   sets * ways,
		Ways:      ways,
		PageBytes: 1 << r.IntRange(9, 13),
	}
}

func TestPropertyTLBStatsBalance(t *testing.T) {
	r := rng.New(0x71b)
	for trial := 0; trial < 60; trial++ {
		cfg := randomGeometry(r)
		tl := New(cfg)
		footprint := uint64(cfg.Entries) * uint64(cfg.PageBytes) * 4
		const translations = 3000
		for i := 0; i < translations; i++ {
			tl.Translate(r.Uint64() % footprint)
		}
		s := tl.Stats()
		if s.Hits+s.Misses != translations {
			t.Fatalf("trial %d %+v: hits %d + misses %d != %d translations", trial, cfg, s.Hits, s.Misses, translations)
		}
		if ratio := float64(s.Misses) / float64(s.Hits+s.Misses); ratio < 0 || ratio > 1 {
			t.Fatalf("trial %d: miss ratio %v out of [0,1]", trial, ratio)
		}
	}
}

// TestPropertyLastHitMemoEquivalence drives the memoized TLB and the
// memo-free port through the same trace: every translation agrees, so the
// memo never changes a miss count or a victim choice.
func TestPropertyLastHitMemoEquivalence(t *testing.T) {
	r := rng.New(0x1a57)
	for trial := 0; trial < 40; trial++ {
		cfg := randomGeometry(r)
		memo := New(cfg)
		ref := newRefTLB(cfg)
		footprint := uint64(cfg.Entries) * uint64(cfg.PageBytes) * 4
		var addr uint64
		for i := 0; i < 5000; i++ {
			// Page-local runs (memo-friendly) mixed with random jumps.
			if v := r.Uint64(); v%4 == 0 {
				addr = v % footprint
			} else {
				addr += 8 << (v % 6)
			}
			a := addr % footprint
			if mh, rh := memo.Translate(a), ref.Translate(a); mh != rh {
				t.Fatalf("trial %d %+v access %d addr %#x: memo hit=%v, scan hit=%v", trial, cfg, i, a, mh, rh)
			}
			if memo.Stats() != ref.stats {
				t.Fatalf("trial %d %+v access %d: stats diverged: %+v vs %+v", trial, cfg, i, memo.Stats(), ref.stats)
			}
		}
		for i := 0; i < 200; i++ {
			a := r.Uint64() % footprint
			if memo.Contains(a) != refContains(ref, a) {
				t.Fatalf("trial %d %+v: contents diverged at %#x", trial, cfg, a)
			}
		}
	}
}

func refContains(t *refTLB, addr uint64) bool {
	vpn := addr >> t.pageShift
	for _, e := range t.sets[vpn&t.setMask] {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}
