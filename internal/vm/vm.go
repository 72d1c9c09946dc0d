// Package vm models AIX virtual memory on a node: a fixed number of
// resident page frames managed with a CLOCK second-chance policy. When a
// job's working set exceeds node memory the manager page-faults, and each
// fault costs system-mode CPU time plus disk DMA traffic — the mechanism
// behind the paper's key finding that >64-node jobs spent more instructions
// in system mode than user mode because they were paging.
package vm

import (
	"fmt"
	"math/bits"
)

// Fault classifies the outcome of a page touch.
type Fault uint8

// Fault kinds. A first touch of a never-seen page is a zero-fill fault:
// AIX allocates and zeroes a frame, cheap and disk-free. A touch of a page
// that was previously resident and got evicted is a page-in: the frame
// must come back from paging space — the expensive path behind the
// paper's >64-node pathology.
const (
	NoFault Fault = iota
	ZeroFill
	PageIn
)

// Stats accumulates paging events.
type Stats struct {
	Touches   uint64 // page references checked
	Faults    uint64 // references to non-resident pages (zero-fill + page-in)
	ZeroFills uint64 // first-touch faults (no disk traffic)
	PageIns   uint64 // pages read back from paging space
	PageOuts  uint64 // dirty pages written to disk on eviction
	Evictions uint64 // pages evicted (dirty or clean)
}

type frame struct {
	vpn        uint64
	valid      bool
	referenced bool
	dirty      bool
}

// slot is one entry of the page table: a virtual page number and its
// state, slotEmpty, slotEvicted, or fi+1 for a page resident in frame fi.
type slot struct {
	vpn   uint64
	state int32
}

const (
	slotEmpty   = 0
	slotEvicted = -1
	// minTable is the page table's first capacity (a power of two).
	minTable = 64
)

// Manager is a per-node virtual memory manager. Not safe for concurrent
// use; each simulated node owns one.
//
// The page table is one open-addressed, linearly probed array from
// virtual page number to state: never seen (an empty slot), evicted, or
// resident in a frame. It answers both questions a touch asks, whether
// the page is resident and whether it was ever resident, with one probe.
// Eviction marks the page's slot evicted rather than deleting it, so no
// probe chain is ever broken.
//
// Storage is allocated lazily: a node that never touches memory (the
// common case in the campaign, where job behaviour is extrapolated from
// profiles rather than micro-simulated per node) costs a few words, not
// nframes of frame table and page table. The frame table grows one frame
// at a time as first-touch faults claim frames, so it reaches nframes only
// if the workload actually fills memory; the page table doubles when half
// full.
type Manager struct {
	pageBytes uint64
	nframes   int     // physical frame count (fixed geometry)
	frames    []frame // allocated frames; len grows up to nframes
	table     []slot  // page table, a power of two long; nil until first fault
	used      int     // table slots holding a page (resident or evicted)
	shift     uint    // 64 - log2(len(table)), for the multiplicative hash
	hand      int
	free      int // frames never yet used (fast path before memory fills)
	stats     Stats

	// lastFi caches the frame that served the previous touch (-1 when
	// unknown). Consecutive references land on the same page far more
	// often than not, and the check — frame valid with matching vpn — is
	// equivalent to the page-table hit for that page, so the shortcut
	// skips the probe without changing any outcome.
	lastFi int
}

// New builds a manager with capacity for memoryBytes of resident pages.
// It panics on non-positive geometry.
func New(memoryBytes uint64, pageBytes int) *Manager {
	if memoryBytes == 0 || pageBytes <= 0 {
		panic(fmt.Sprintf("vm: bad geometry memory=%d page=%d", memoryBytes, pageBytes))
	}
	n := int(memoryBytes / uint64(pageBytes))
	if n < 1 {
		n = 1
	}
	return &Manager{
		pageBytes: uint64(pageBytes),
		nframes:   n,
		free:      n,
		lastFi:    -1,
	}
}

// ResidentPages reports how many frames currently hold pages. A claimed
// frame is never emptied, only handed to another page, so every frame
// ever claimed holds a page.
func (m *Manager) ResidentPages() int { return m.nframes - m.free }

// Stats returns the accumulated paging counts.
func (m *Manager) Stats() Stats { return m.stats }

// find returns the index of vpn's slot in the page table, or of the empty
// slot where it would go. The table is never full (it doubles at half
// load), so the probe ends.
func (m *Manager) find(vpn uint64) int {
	mask := len(m.table) - 1
	i := int((vpn * 0x9e3779b97f4a7c15) >> m.shift)
	for {
		s := &m.table[i]
		if s.state == slotEmpty || s.vpn == vpn {
			return i
		}
		i = (i + 1) & mask
	}
}

// grow doubles the page table (or allocates its first one) and reinserts
// every page it holds.
func (m *Manager) grow() {
	old := m.table
	n := 2 * len(old)
	if n == 0 {
		n = minTable
	}
	//hpmlint:ignore hotalloc the page table doubles at half load, so its growth is amortised to zero over a run; TestRunLimitedAllocFree measures the steady state
	m.table = make([]slot, n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.state != slotEmpty {
			m.table[m.find(s.vpn)] = s
		}
	}
}

// Touch references the page containing addr, faulting it in if necessary.
// dirty marks the page modified (a store). It returns the fault kind.
func (m *Manager) Touch(addr uint64, dirty bool) Fault {
	m.stats.Touches++
	vpn := addr / m.pageBytes
	if m.lastFi >= 0 {
		if f := &m.frames[m.lastFi]; f.valid && f.vpn == vpn {
			f.referenced = true
			if dirty {
				f.dirty = true
			}
			return NoFault
		}
	}
	si := 0
	if m.table != nil {
		si = m.find(vpn)
		if st := m.table[si].state; st > 0 {
			fi := int(st - 1)
			m.frames[fi].referenced = true
			if dirty {
				m.frames[fi].dirty = true
			}
			m.lastFi = fi
			return NoFault
		}
	}

	m.stats.Faults++
	var fi int
	if m.free > 0 {
		fi = m.nframes - m.free
		m.free--
		if fi == len(m.frames) {
			//hpmlint:ignore hotalloc the frame pool grows to nframes once then stabilises; TestRunLimitedAllocFree measures the steady state
			m.frames = append(m.frames, frame{})
		}
	} else {
		// Eviction only marks the victim's slot, so si stays valid.
		fi = m.evict()
	}
	m.frames[fi] = frame{vpn: vpn, valid: true, referenced: true, dirty: dirty}
	m.lastFi = fi

	kind := ZeroFill
	if m.table != nil && m.table[si].state == slotEvicted {
		kind = PageIn
		m.stats.PageIns++
	} else {
		m.stats.ZeroFills++
		if 2*(m.used+1) > len(m.table) {
			m.grow()
			si = m.find(vpn)
		}
		m.used++
	}
	m.table[si] = slot{vpn: vpn, state: int32(fi + 1)}
	return kind
}

// evict runs the CLOCK hand until it finds an unreferenced frame, clearing
// reference bits as it passes, and returns the freed frame index.
func (m *Manager) evict() int {
	for {
		f := &m.frames[m.hand]
		if f.valid && f.referenced {
			f.referenced = false
			m.hand = (m.hand + 1) % len(m.frames)
			continue
		}
		idx := m.hand
		m.hand = (m.hand + 1) % len(m.frames)
		if f.valid {
			m.table[m.find(f.vpn)].state = slotEvicted
			m.stats.Evictions++
			if f.dirty {
				m.stats.PageOuts++
			}
		}
		f.valid = false
		return idx
	}
}

// Resident probes whether the page containing addr is resident without
// touching reference bits or statistics.
func (m *Manager) Resident(addr uint64) bool {
	return m.table != nil && m.table[m.find(addr/m.pageBytes)].state > 0
}
