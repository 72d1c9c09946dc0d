package hpm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1HasTwentyTwoCounters(t *testing.T) {
	if NumEvents != 22 {
		t.Fatalf("NumEvents = %d, want 22 (paper: 22 counters)", NumEvents)
	}
	rows := Table1()
	if len(rows) != 22 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	// Group sizes: FXU 5, FPU0 5, FPU1 5, ICU 2, SCU 5.
	groups := map[string]int{}
	for _, r := range rows {
		groups[r.Group]++
	}
	want := map[string]int{"FXU": 5, "FPU0": 5, "FPU1": 5, "ICU": 2, "SCU": 5}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d counters, want %d", g, groups[g], n)
		}
	}
}

func TestTable1Labels(t *testing.T) {
	if Info(EvFXU0Instr).Label != "user.fxu0" {
		t.Fatalf("label = %q", Info(EvFXU0Instr).Label)
	}
	if Info(EvDMAWrite).Label != "user.dma_write" {
		t.Fatalf("label = %q", Info(EvDMAWrite).Label)
	}
	if EvCycles.String() != "user.cycles" {
		t.Fatalf("String = %q", EvCycles.String())
	}
	if Event(99).String() == "" {
		t.Fatal("invalid event String empty")
	}
	for _, r := range Table1() {
		if r.Index < 0 || r.Index > 4 {
			t.Errorf("%s index %d out of range", r.Label, r.Index)
		}
		if r.Description == "" {
			t.Errorf("%s has no description", r.Label)
		}
	}
}

func TestInfoPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Info(NumEvents)
}

func TestModeString(t *testing.T) {
	if User.String() != "user" || System.String() != "system" {
		t.Fatal("mode names wrong")
	}
}

func TestAddAndSnapshot(t *testing.T) {
	m := New()
	m.Add(EvFXU0Instr, 1)
	m.Add(EvCycles, 100)
	m.SetMode(System)
	m.Add(EvFXU0Instr, 7)
	s := m.Snapshot()
	if s.Get(User, EvFXU0Instr) != 1 || s.Get(User, EvCycles) != 100 {
		t.Fatalf("user counts wrong: %+v", s.Counts[User])
	}
	if s.Get(System, EvFXU0Instr) != 7 {
		t.Fatalf("system count wrong: %d", s.Get(System, EvFXU0Instr))
	}
	if m.mode != System {
		t.Fatal("mode not sticky")
	}
}

func TestAddPanicsOnInvalidEvent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().Add(NumEvents, 1)
}

func TestSetModePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().SetMode(Mode(9))
}

func TestCounterWrapsAt32Bits(t *testing.T) {
	m := New()
	m.Add(EvCycles, math.MaxUint32) // register now MaxUint32
	m.Add(EvCycles, 5)              // wraps to 4
	if got := m.Snapshot().Get(User, EvCycles); got != 4 {
		t.Fatalf("wrapped register = %d, want 4", got)
	}
}

func TestSubWrapCorrection(t *testing.T) {
	m := New()
	m.Add(EvCycles, math.MaxUint32-10)
	before := m.Snapshot()
	m.Add(EvCycles, 100) // wraps
	after := m.Snapshot()
	d := Sub(before, after)
	if got := d.Get(User, EvCycles); got != 100 {
		t.Fatalf("wrap-corrected delta = %d, want 100", got)
	}
}

func TestSubProperty(t *testing.T) {
	// For any starting register and any increment, the delta is exact.
	f := func(start uint32, inc uint32) bool {
		m := New()
		m.Add(EvFXU1Instr, uint64(start))
		before := m.Snapshot()
		m.Add(EvFXU1Instr, uint64(inc))
		d := Sub(before, m.Snapshot())
		return d.Get(User, EvFXU1Instr) == uint64(inc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivideCounterBug(t *testing.T) {
	m := New()
	m.Add(EvFPU0Div, 50)
	m.Add(EvFPU1Div, 30)
	s := m.Snapshot()
	if s.Get(User, EvFPU0Div) != 0 || s.Get(User, EvFPU1Div) != 0 {
		t.Fatal("divide counters must read 0 (hardware bug)")
	}
	if m.TrueDivides(User) != 80 {
		t.Fatalf("TrueDivides = %d, want 80", m.TrueDivides(User))
	}
}

func TestNewWithoutDivBugCounts(t *testing.T) {
	m := NewWithoutDivBug()
	m.Add(EvFPU0Div, 50)
	if got := m.Snapshot().Get(User, EvFPU0Div); got != 50 {
		t.Fatalf("fixed monitor divide counter = %d, want 50", got)
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.Add(EvCycles, 42)
	m.Add(EvFPU0Div, 7)
	m.SetMode(System)
	m.Add(EvCycles, 9)
	m.Reset()
	s := m.Snapshot()
	for mode := Mode(0); mode < numModes; mode++ {
		for e := Event(0); e < NumEvents; e++ {
			if s.Get(mode, e) != 0 {
				t.Fatalf("counter %v/%v not reset", mode, e)
			}
		}
	}
	if m.TrueDivides(User) != 0 {
		t.Fatal("trueDivides not reset")
	}
	if m.mode != System {
		t.Fatal("Reset should not change mode")
	}
}

func TestDeltaTotalAndAdd(t *testing.T) {
	var d Delta
	d.Counts[User][EvFXU0Instr] = 10
	d.Counts[System][EvFXU0Instr] = 3
	if d.Total(EvFXU0Instr) != 13 {
		t.Fatalf("Total = %d", d.Total(EvFXU0Instr))
	}
	var e Delta
	e.Counts[User][EvFXU0Instr] = 5
	d.Add(e)
	if d.Get(User, EvFXU0Instr) != 15 {
		t.Fatalf("Add = %d", d.Get(User, EvFXU0Instr))
	}
}
