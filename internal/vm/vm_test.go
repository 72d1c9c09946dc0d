package vm

import (
	"testing"
	"testing/quick"
)

const page = 4096

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, c := range []struct {
		mem  uint64
		page int
	}{{0, 4096}, {1 << 20, 0}, {1 << 20, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.mem, c.page)
				}
			}()
			New(c.mem, c.page)
		}()
	}
}

func TestFrameCount(t *testing.T) {
	m := New(16*page, page)
	if m.nframes != 16 {
		t.Fatalf("frames = %d", m.nframes)
	}
}

func TestTouchFaultsOnceWhenResidentFits(t *testing.T) {
	m := New(8*page, page)
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < 8; p++ {
			m.Touch(uint64(p*page), false)
		}
	}
	st := m.Stats()
	if st.Faults != 8 {
		t.Fatalf("faults = %d, want 8 (one per page)", st.Faults)
	}
	if st.Touches != 24 {
		t.Fatalf("touches = %d", st.Touches)
	}
	if m.ResidentPages() != 8 {
		t.Fatalf("resident = %d", m.ResidentPages())
	}
}

func TestZeroFillVsPageIn(t *testing.T) {
	m := New(2*page, page)
	if got := m.Touch(0, false); got != ZeroFill {
		t.Fatalf("first touch = %v, want ZeroFill", got)
	}
	if got := m.Touch(0, false); got != NoFault {
		t.Fatalf("resident touch = %v, want NoFault", got)
	}
	m.Touch(1*page, false)
	m.Touch(2*page, false) // evicts page 0
	m.Touch(3*page, false)
	// Page 0 was evicted: re-touching is a page-in from paging space.
	for m.Resident(0) {
		m.Touch(4*page, false)
	}
	if got := m.Touch(0, false); got != PageIn {
		t.Fatalf("re-touch of evicted page = %v, want PageIn", got)
	}
	st := m.Stats()
	if st.PageIns == 0 || st.ZeroFills == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversubscribedWorkingSetThrashes(t *testing.T) {
	// Working set of 16 pages cycled through 8 frames with CLOCK: every
	// touch faults in steady state (sequential cyclic sweep is CLOCK's
	// worst case — this is the paper's >64-node paging pathology).
	m := New(8*page, page)
	for pass := 0; pass < 4; pass++ {
		for p := 0; p < 16; p++ {
			m.Touch(uint64(p*page), false)
		}
	}
	st := m.Stats()
	if ratio := float64(st.Faults) / float64(st.Touches); ratio < 0.9 {
		t.Fatalf("oversubscribed fault ratio = %v, want ~1", ratio)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under oversubscription")
	}
}

func TestDirtyEvictionCountsPageOut(t *testing.T) {
	m := New(2*page, page)
	m.Touch(0*page, true)  // dirty
	m.Touch(1*page, false) // clean
	m.Touch(2*page, false) // evicts something
	m.Touch(3*page, false) // evicts something
	st := m.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.PageOuts != 1 {
		t.Fatalf("pageouts = %d, want 1 (only the dirty page)", st.PageOuts)
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	m := New(2*page, page)
	m.Touch(0*page, false)
	m.Touch(1*page, false)
	// Re-reference page 0 so its bit is set; page 1's bit is also set from
	// its fault. Fault a third page: CLOCK clears bits in order and evicts
	// the first frame it finds unreferenced — frame 0 after one full lap.
	m.Touch(0*page, false)
	m.Touch(2*page, false)
	if m.ResidentPages() != 2 {
		t.Fatalf("resident = %d", m.ResidentPages())
	}
	if !m.Resident(2 * page) {
		t.Fatal("newly faulted page not resident")
	}
}

func TestResidentProbeNoSideEffects(t *testing.T) {
	m := New(4*page, page)
	m.Touch(0, false)
	before := m.Stats()
	if !m.Resident(0) || m.Resident(page) {
		t.Fatal("Resident probe wrong")
	}
	if m.Stats() != before {
		t.Fatal("Resident probe changed stats")
	}
}

func TestAccountingInvariantsProperty(t *testing.T) {
	f := func(touches []uint16, dirt []bool) bool {
		m := New(8*page, page)
		for i, p := range touches {
			dirty := i < len(dirt) && dirt[i]
			m.Touch(uint64(p%64)*page, dirty)
		}
		st := m.Stats()
		// Faults split exactly into zero-fills and page-ins; resident pages
		// never exceed frames; evictions never exceed faults; page-outs
		// never exceed evictions.
		return st.Faults == st.ZeroFills+st.PageIns &&
			m.ResidentPages() <= m.nframes &&
			st.Evictions <= st.Faults &&
			st.PageOuts <= st.Evictions &&
			st.Touches == uint64(len(touches))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTouchResident(b *testing.B) {
	m := New(1024*page, page)
	m.Touch(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Touch(0, false)
	}
}

func BenchmarkTouchThrashing(b *testing.B) {
	m := New(64*page, page)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Touch(uint64(i%128)*page, false)
	}
}
