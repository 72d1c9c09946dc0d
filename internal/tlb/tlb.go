// Package tlb models the RS6000 translation lookaside buffer: 512 entries
// over 4096-byte pages (paper §2). A TLB miss costs 36 to 54 cycles while
// the hardware walks the page table; the CPU model draws the exact delay
// from that interval.
package tlb

import "fmt"

// Config describes a TLB geometry.
type Config struct {
	Entries   int
	Ways      int
	PageBytes int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.PageBytes <= 0 {
		return fmt.Errorf("tlb: non-positive geometry %+v", c)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: entries %d not divisible by ways %d", c.Entries, c.Ways)
	}
	if c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("tlb: page size %d not a power of two", c.PageBytes)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d not a power of two", sets)
	}
	return nil
}

// Stats accumulates translation events.
type Stats struct {
	Hits   uint64
	Misses uint64
}

type entry struct {
	vpn     uint64
	valid   bool
	lastUse uint64
}

// TLB is a set-associative translation buffer with LRU replacement. Not
// safe for concurrent use.
type TLB struct {
	sets      [][]entry
	setMask   uint64
	pageShift uint
	stats     Stats
	tick      uint64

	// last points at the entry that served the previous translation.
	// Runs of references to the same page (the common case: pages are 16
	// cache lines) hit it without the set scan. Checking last.valid &&
	// last.vpn == vpn is exactly the scan's hit test for that entry, so
	// the shortcut cannot change any outcome.
	last *entry
}

// New builds a TLB; it panics on invalid geometry.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Entries / cfg.Ways
	sets := make([][]entry, nsets)
	backing := make([]entry, cfg.Entries)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	shift := uint(0)
	for 1<<shift != cfg.PageBytes {
		shift++
	}
	return &TLB{sets: sets, setMask: uint64(nsets - 1), pageShift: shift}
}

// Stats returns accumulated counts.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes counts without disturbing contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Translate looks up the page containing addr, installing it on a miss.
// It returns true on a hit.
func (t *TLB) Translate(addr uint64) bool {
	t.tick++
	vpn := addr >> t.pageShift
	if l := t.last; l != nil && l.valid && l.vpn == vpn {
		l.lastUse = t.tick
		t.stats.Hits++
		return true
	}
	setIdx := vpn & t.setMask
	set := t.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lastUse = t.tick
			t.last = &set[i]
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
	t.last = &set[victim]
	return false
}

// Contains probes for the page containing addr without changing state.
func (t *TLB) Contains(addr uint64) bool {
	vpn := addr >> t.pageShift
	for _, e := range t.sets[vpn&t.setMask] {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}
