package vm

// Equivalence guard for the flat page table. refManager below is a
// line-for-line port of the implementation this package shipped with
// before the table: an index map from vpn to frame, a seen map of every
// page ever resident, and the same one-entry memo and CLOCK hand. The
// table-based Manager must agree with it on every observable: each
// touch's Fault, the running Stats, ResidentPages, and Resident probes.
// A randomized trace of over a million touches mixes stores, resident
// loops, sequential sweeps that thrash CLOCK, random jumps over a wide
// address range.

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

type refManager struct {
	pageBytes uint64
	nframes   int
	frames    []frame
	index     map[uint64]int
	seen      map[uint64]struct{}
	hand      int
	free      int
	stats     Stats
	lastFi    int
}

func newRefManager(memoryBytes uint64, pageBytes int) *refManager {
	n := int(memoryBytes / uint64(pageBytes))
	if n < 1 {
		n = 1
	}
	return &refManager{pageBytes: uint64(pageBytes), nframes: n, free: n, lastFi: -1}
}

func (m *refManager) ResidentPages() int { return len(m.index) }

func (m *refManager) Touch(addr uint64, dirty bool) Fault {
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
	if fi, ok := m.index[vpn]; ok {
		m.frames[fi].referenced = true
		if dirty {
			m.frames[fi].dirty = true
		}
		m.lastFi = fi
		return NoFault
	}

	m.stats.Faults++
	kind := ZeroFill
	if _, ever := m.seen[vpn]; ever {
		kind = PageIn
		m.stats.PageIns++
	} else {
		m.stats.ZeroFills++
		if m.seen == nil {
			m.seen = make(map[uint64]struct{})
		}
		m.seen[vpn] = struct{}{}
	}

	var fi int
	if m.free > 0 {
		fi = m.nframes - m.free
		m.free--
		if fi == len(m.frames) {
			m.frames = append(m.frames, frame{})
		}
	} else {
		fi = m.evict()
	}
	m.frames[fi] = frame{vpn: vpn, valid: true, referenced: true, dirty: dirty}
	if m.index == nil {
		m.index = make(map[uint64]int)
	}
	m.index[vpn] = fi
	m.lastFi = fi
	return kind
}

func (m *refManager) evict() int {
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
			delete(m.index, f.vpn)
			m.stats.Evictions++
			if f.dirty {
				m.stats.PageOuts++
			}
		}
		f.valid = false
		return idx
	}
}

func (m *refManager) Resident(addr uint64) bool {
	_, ok := m.index[addr/m.pageBytes]
	return ok
}

// TestPageTableEquivalence drives the table-based Manager and the map
// reference in lockstep and demands identical observables at every step.
func TestPageTableEquivalence(t *testing.T) {
	const touches = 1_200_000

	for _, frames := range []int{1, 7, 64, 1000} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			opt := New(uint64(frames)*page, page)
			ref := newRefManager(uint64(frames)*page, page)
			src := rng.New(0x9a6e + uint64(frames))

			// Page footprints around the frame count: a quarter of memory
			// (mostly hits), twice and four times memory (CLOCK thrashing).
			footprints := []uint64{uint64(frames)/4 + 1, 2 * uint64(frames), 4 * uint64(frames)}
			fp := footprints[0]
			var vpn uint64
			for i := 0; i < touches; i++ {
				r := src.Uint64()
				if i%20_000 == 0 {
					fp = footprints[r%3]
				}
				switch r % 16 {
				case 0, 1, 2, 3, 4, 5: // sequential sweep of the footprint
					vpn = (vpn + 1) % fp
				case 6, 7, 8: // stay on the page
				case 9, 10, 11, 12, 13: // random page in the footprint
					vpn = (r >> 8) % fp
				case 14: // a far page: a fresh zero-fill, spread over the hash
					vpn = fp + (r>>12)%(1<<30)
				default: // a page in a second, distant region
					vpn = 1<<40 + (r>>8)%fp
				}
				addr := vpn*page + (r>>32)%page
				dirty := r&(1<<63) != 0

				if of, rf := opt.Touch(addr, dirty), ref.Touch(addr, dirty); of != rf {
					t.Fatalf("touch %d vpn %#x dirty=%v: table %v, reference %v", i, vpn, dirty, of, rf)
				}
				if opt.Stats() != ref.stats {
					t.Fatalf("touch %d: stats diverged: table %+v reference %+v", i, opt.Stats(), ref.stats)
				}
				if opt.ResidentPages() != ref.ResidentPages() {
					t.Fatalf("touch %d: resident pages %d, reference %d", i, opt.ResidentPages(), ref.ResidentPages())
				}
				if i%7 == 0 {
					probe := ((r >> 16) % (4*fp + 2)) * page
					if opt.Resident(probe) != ref.Resident(probe) {
						t.Fatalf("touch %d: Resident(%#x) = %v, reference %v", i, probe, opt.Resident(probe), ref.Resident(probe))
					}
				}
			}

			// Final residency must agree over the whole footprint.
			for v := uint64(0); v < 4*uint64(frames)+2; v++ {
				for _, base := range []uint64{0, 1 << 40} {
					if a := (base + v) * page; opt.Resident(a) != ref.Resident(a) {
						t.Fatalf("final residency diverged at vpn %#x", base+v)
					}
				}
			}
		})
	}
}
