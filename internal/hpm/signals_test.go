package hpm

import "testing"

func TestNASSelectionValid(t *testing.T) {
	if err := NASSelection().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := IOWaitSelection().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionValidateRejectsCrossBank(t *testing.T) {
	s := NASSelection()
	s.Slots[EvFXU0Instr] = SigFPU0Add // FPU0-bank signal on an FXU slot
	if err := s.Validate(); err == nil {
		t.Fatal("cross-bank selection accepted")
	}
}

func TestSelectionValidateRejectsDuplicates(t *testing.T) {
	s := NASSelection()
	s.Slots[EvFXU1Instr] = SigFXU0Instr // duplicate of slot 0
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate selection accepted")
	}
}

func TestSelectionValidateRejectsEmptySlot(t *testing.T) {
	s := NASSelection()
	s.Slots[EvCycles] = SigNone
	if err := s.Validate(); err == nil {
		t.Fatal("empty slot accepted")
	}
}

func TestSignalRoutingUnderNAS(t *testing.T) {
	m := New()
	m.Signal(SigFXU0Instr, 7)
	m.Signal(SigDCacheMiss, 3)
	// Signals outside the NAS selection must vanish.
	m.Signal(SigIOWaitCycles, 1000)
	m.Signal(SigBranchTaken, 50)
	s := m.Snapshot()
	if s.Get(User, EvFXU0Instr) != 7 || s.Get(User, EvDCacheMiss) != 3 {
		t.Fatal("selected signals not counted")
	}
	total := uint64(0)
	for ev := Event(0); ev < NumEvents; ev++ {
		total += uint64(s.Get(User, ev))
	}
	if total != 10 {
		t.Fatalf("unselected signals leaked into registers: total=%d", total)
	}
}

func TestArmIOWaitSelection(t *testing.T) {
	m := New()
	m.Signal(SigCycles, 99)
	if err := m.Arm("iowait"); err != nil {
		t.Fatal(err)
	}
	// Arming resets the registers.
	if m.Snapshot().Get(User, EvCycles) != 0 {
		t.Fatal("Arm did not reset counters")
	}
	// I/O wait now lands in the repurposed SCU slot; icache reloads vanish.
	m.Signal(SigIOWaitCycles, 1234)
	m.Signal(SigICacheReload, 55)
	m.Signal(SigPageIns, 9)
	m.Signal(SigSwitchMsgBytes, 77)
	s := m.Snapshot()
	if got := s.Get(User, EvICacheReload); got != 1234 {
		t.Fatalf("io_wait slot = %d, want 1234", got)
	}
	if got := s.Get(User, EvDMARead); got != 9 {
		t.Fatalf("page_ins slot = %d, want 9", got)
	}
	if got := s.Get(User, EvDMAWrite); got != 77 {
		t.Fatalf("switch payload slot = %d, want 77", got)
	}
}

func TestArmRejectsUnverified(t *testing.T) {
	if err := New().Arm("never-implemented"); err == nil {
		t.Fatal("unverified selection armed")
	}
}

func TestDivideBugIsSignalLevel(t *testing.T) {
	// Whatever slot selects a divide signal, the hardware never delivers
	// the counts.
	s := NASSelection()
	s.Name = "div-on-slot4"
	s.Slots[EvFPU0Div] = SigFPU0Sqrt // move div off its usual slot...
	s.Slots[EvFPU0FMA] = SigFPU0Div  // ...onto the fma slot
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	verifiedSelections[s.Name] = s
	m := New()
	if err := m.Arm("div-on-slot4"); err != nil {
		t.Fatal(err)
	}
	m.Signal(SigFPU0Div, 100)
	if got := m.Snapshot().Get(User, EvFPU0FMA); got != 0 {
		t.Fatalf("divide counts reached a register: %d", got)
	}
	if m.TrueDivides(User) != 100 {
		t.Fatalf("TrueDivides = %d", m.TrueDivides(User))
	}
	// Sqrt now counts on the old div slot.
	m.Signal(SigFPU0Sqrt, 5)
	if got := m.Snapshot().Get(User, EvFPU0Div); got != 5 {
		t.Fatalf("sqrt on div slot = %d", got)
	}
}

func TestSignalPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().Signal(NumSignals, 1)
}

func TestSignalNamesAndGroups(t *testing.T) {
	if SigIOWaitCycles.String() != "io_wait_cycles" || SigIOWaitCycles.Group() != "SCU" {
		t.Fatal("io_wait metadata wrong")
	}
	if Signal(9999).String() == "" || Signal(9999).Group() != "" {
		t.Fatal("invalid signal metadata wrong")
	}
	for sig := Signal(1); sig < NumSignals; sig++ {
		if sig.String() == "" || sig.Group() == "" {
			t.Errorf("signal %d missing metadata", sig)
		}
	}
}

func TestSignalModeSplit(t *testing.T) {
	m := New()
	m.Signal(SigFXU0Instr, 2)
	m.SetMode(System)
	m.Signal(SigFXU0Instr, 5)
	s := m.Snapshot()
	if s.Get(User, EvFXU0Instr) != 2 || s.Get(System, EvFXU0Instr) != 5 {
		t.Fatal("signal counting ignores mode")
	}
}
