package hpm

// This file models the layer below Table 1: the POWER2 performance monitor
// could observe ~320 (partly overlapping) signals, of which software
// selects one per counter slot — "each combination must be implemented and
// verified in the monitoring software" (paper §3, citing Welbon 1994). The
// NAS deployment armed the 22-event selection of Table 1; the paper's
// conclusion recommends that other sites select options reporting I/O wait
// in addition to CPU performance. Both selections are implemented here,
// and the CPU model emits the superset of signals so alternative
// selections see real data.

import "fmt"

// Signal identifies one selectable performance-monitor signal.
type Signal uint16

// The signal catalog, grouped by the chip unit that sources them. This is
// a representative implementation of the documented catalog: every signal
// the NAS selection needs, the unit-level signals the paper's text
// discusses (directory searches, store overlap, branches taken, I/O wait),
// and the usual decode/dispatch signals. The real hardware exposed ~320
// partly-overlapping encodings.
const (
	SigNone Signal = iota

	// FXU-sourced signals.
	SigFXU0Instr
	SigFXU1Instr
	SigDCacheMiss
	SigTLBMiss
	SigCycles
	SigFXU0DirSearch // D-cache directory searches handled by FXU0 (paper §5)
	SigFXUAddrMulDiv // addressing multiply/divide executed (FXU1 only)
	SigFXULoads      // storage-reference loads (quad counts once)
	SigFXUStores     // storage-reference stores (quad counts once)

	// FPU0-sourced signals.
	SigFPU0Instr
	SigFPU0Add
	SigFPU0Mul
	SigFPU0Div
	SigFPU0FMA
	SigFPU0Sqrt
	SigFPU0StOverlap // stores overlapped with arithmetic (paper §2)

	// FPU1-sourced signals.
	SigFPU1Instr
	SigFPU1Add
	SigFPU1Mul
	SigFPU1Div
	SigFPU1FMA
	SigFPU1Sqrt
	SigFPU1StOverlap

	// ICU-sourced signals.
	SigICUType1
	SigICUType2
	SigBranchTaken
	SigDispatchedInstr // instructions dispatched to FXU/FPU

	// SCU-sourced signals.
	SigICacheReload
	SigDCacheReload
	SigDCacheStore
	SigDMARead
	SigDMAWrite
	SigIOWaitCycles   // cycles the CPU waited on I/O (paging, messages)
	SigPageIns        // pages brought back from paging space
	SigSwitchMsgBytes // adapter payload bytes (in 64-byte units)

	NumSignals // sentinel
)

// signalInfo describes a catalog entry.
type signalInfo struct {
	name  string
	group string // which unit's counter bank can select it
}

var signalTable = [NumSignals]signalInfo{
	SigNone:            {"none", ""},
	SigFXU0Instr:       {"fxu0_instr", "FXU"},
	SigFXU1Instr:       {"fxu1_instr", "FXU"},
	SigDCacheMiss:      {"dcache_miss", "FXU"},
	SigTLBMiss:         {"tlb_miss", "FXU"},
	SigCycles:          {"cycles", "FXU"},
	SigFXU0DirSearch:   {"fxu0_dir_search", "FXU"},
	SigFXUAddrMulDiv:   {"fxu_addr_muldiv", "FXU"},
	SigFXULoads:        {"fxu_loads", "FXU"},
	SigFXUStores:       {"fxu_stores", "FXU"},
	SigFPU0Instr:       {"fpu0_instr", "FPU0"},
	SigFPU0Add:         {"fpu0_add", "FPU0"},
	SigFPU0Mul:         {"fpu0_mul", "FPU0"},
	SigFPU0Div:         {"fpu0_div", "FPU0"},
	SigFPU0FMA:         {"fpu0_fma", "FPU0"},
	SigFPU0Sqrt:        {"fpu0_sqrt", "FPU0"},
	SigFPU0StOverlap:   {"fpu0_st_overlap", "FPU0"},
	SigFPU1Instr:       {"fpu1_instr", "FPU1"},
	SigFPU1Add:         {"fpu1_add", "FPU1"},
	SigFPU1Mul:         {"fpu1_mul", "FPU1"},
	SigFPU1Div:         {"fpu1_div", "FPU1"},
	SigFPU1FMA:         {"fpu1_fma", "FPU1"},
	SigFPU1Sqrt:        {"fpu1_sqrt", "FPU1"},
	SigFPU1StOverlap:   {"fpu1_st_overlap", "FPU1"},
	SigICUType1:        {"icu_type1", "ICU"},
	SigICUType2:        {"icu_type2", "ICU"},
	SigBranchTaken:     {"branch_taken", "ICU"},
	SigDispatchedInstr: {"dispatched_instr", "ICU"},
	SigICacheReload:    {"icache_reload", "SCU"},
	SigDCacheReload:    {"dcache_reload", "SCU"},
	SigDCacheStore:     {"dcache_store", "SCU"},
	SigDMARead:         {"dma_read", "SCU"},
	SigDMAWrite:        {"dma_write", "SCU"},
	SigIOWaitCycles:    {"io_wait_cycles", "SCU"},
	SigPageIns:         {"page_ins", "SCU"},
	SigSwitchMsgBytes:  {"switch_msg_64b", "SCU"},
}

// String returns the catalog name of the signal.
func (s Signal) String() string {
	if s >= NumSignals {
		return fmt.Sprintf("signal(%d)", uint16(s))
	}
	return signalTable[s].name
}

// Group returns the unit whose counter bank can select the signal.
func (s Signal) Group() string {
	if s >= NumSignals {
		return ""
	}
	return signalTable[s].group
}

// slotGroups names the counter bank each of the 22 slots belongs to, in
// Event order.
var slotGroups = [NumEvents]string{
	EvFXU0Instr: "FXU", EvFXU1Instr: "FXU", EvDCacheMiss: "FXU",
	EvTLBMiss: "FXU", EvCycles: "FXU",
	EvFPU0Instr: "FPU0", EvFPU0Add: "FPU0", EvFPU0Mul: "FPU0",
	EvFPU0Div: "FPU0", EvFPU0FMA: "FPU0",
	EvFPU1Instr: "FPU1", EvFPU1Add: "FPU1", EvFPU1Mul: "FPU1",
	EvFPU1Div: "FPU1", EvFPU1FMA: "FPU1",
	EvICUType1: "ICU", EvICUType2: "ICU",
	EvICacheReload: "SCU", EvDCacheReload: "SCU", EvDCacheStore: "SCU",
	EvDMARead: "SCU", EvDMAWrite: "SCU",
}

// Selection assigns one signal to each of the 22 counter slots.
type Selection struct {
	Name  string
	Slots [NumEvents]Signal
}

// Validate checks that every slot carries a signal its counter bank can
// select and that no signal is selected twice.
func (s Selection) Validate() error {
	seen := map[Signal]Event{}
	for ev := Event(0); ev < NumEvents; ev++ {
		sig := s.Slots[ev]
		if sig == SigNone || sig >= NumSignals {
			return fmt.Errorf("hpm: selection %q slot %v has no signal", s.Name, ev)
		}
		if sig.Group() != slotGroups[ev] {
			return fmt.Errorf("hpm: selection %q slot %v (%s bank) cannot select %s-bank signal %v",
				s.Name, ev, slotGroups[ev], sig.Group(), sig)
		}
		if prev, dup := seen[sig]; dup {
			return fmt.Errorf("hpm: selection %q selects %v on both %v and %v", s.Name, sig, prev, ev)
		}
		seen[sig] = ev
	}
	return nil
}

// NASSelection is Table 1: the 22 events NAS armed for the campaign.
func NASSelection() Selection {
	var s Selection
	s.Name = "nas"
	s.Slots = [NumEvents]Signal{
		EvFXU0Instr: SigFXU0Instr, EvFXU1Instr: SigFXU1Instr,
		EvDCacheMiss: SigDCacheMiss, EvTLBMiss: SigTLBMiss, EvCycles: SigCycles,
		EvFPU0Instr: SigFPU0Instr, EvFPU0Add: SigFPU0Add, EvFPU0Mul: SigFPU0Mul,
		EvFPU0Div: SigFPU0Div, EvFPU0FMA: SigFPU0FMA,
		EvFPU1Instr: SigFPU1Instr, EvFPU1Add: SigFPU1Add, EvFPU1Mul: SigFPU1Mul,
		EvFPU1Div: SigFPU1Div, EvFPU1FMA: SigFPU1FMA,
		EvICUType1: SigICUType1, EvICUType2: SigICUType2,
		EvICacheReload: SigICacheReload, EvDCacheReload: SigDCacheReload,
		EvDCacheStore: SigDCacheStore, EvDMARead: SigDMARead, EvDMAWrite: SigDMAWrite,
	}
	return s
}

// IOWaitSelection is the counter option the paper's conclusion recommends:
// keep the CPU-performance core but repurpose three SCU slots for I/O wait
// cycles, page-ins and switch payload — "counter options which could also
// report I/O wait time in addition to CPU performance".
func IOWaitSelection() Selection {
	s := NASSelection()
	s.Name = "iowait"
	s.Slots[EvICacheReload] = SigIOWaitCycles
	s.Slots[EvDMARead] = SigPageIns
	s.Slots[EvDMAWrite] = SigSwitchMsgBytes
	return s
}

// verifiedSelections is the registry of combinations that have been
// "implemented and verified in the monitoring software". Arming an
// unverified selection is rejected, as on the real system.
var verifiedSelections = map[string]Selection{}

func init() {
	for _, s := range []Selection{NASSelection(), IOWaitSelection()} {
		if err := s.Validate(); err != nil {
			panic(err)
		}
		verifiedSelections[s.Name] = s
	}
}

// VerifiedSelection looks up a registered selection by name.
func VerifiedSelection(name string) (Selection, bool) {
	s, ok := verifiedSelections[name]
	return s, ok
}

// router maps signals to counter slots for an armed selection.
type router [NumSignals]int8

func buildRouter(sel Selection) router {
	var r router
	for i := range r {
		r[i] = -1
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		r[sel.Slots[ev]] = int8(ev)
	}
	return r
}

// Arm re-programs the monitor with a verified selection, clearing the
// counters (re-arming the hardware resets the registers). It fails for
// selections that were never verified.
func (m *Monitor) Arm(name string) error {
	sel, ok := VerifiedSelection(name)
	if !ok {
		return fmt.Errorf("hpm: selection %q not implemented/verified", name)
	}
	m.router = buildRouter(sel)
	m.divSlot = buildDivSlots(sel)
	m.Reset()
	return nil
}

// buildDivSlots precomputes which counter slots the selection routes the
// (hardware-bugged) divide signals into.
func buildDivSlots(sel Selection) [NumEvents]bool {
	var d [NumEvents]bool
	for ev := Event(0); ev < NumEvents; ev++ {
		d[ev] = sel.Slots[ev] == SigFPU0Div || sel.Slots[ev] == SigFPU1Div
	}
	return d
}

// Signal counts n occurrences of a hardware signal; it lands in a counter
// register only if the armed selection routes it to a slot. The divide
// counter bug is a property of the divide *signals*: the hardware never
// delivered them, whatever slot selected them.
func (m *Monitor) Signal(sig Signal, n uint64) {
	if sig >= NumSignals {
		panic(fmt.Sprintf("hpm: invalid signal %d", sig))
	}
	if m.divBug && (sig == SigFPU0Div || sig == SigFPU1Div) {
		m.trueDivides[m.mode] += n
		return
	}
	slot := m.router[sig]
	if slot < 0 {
		return
	}
	m.counts[m.mode][slot] += uint32(n)
}
