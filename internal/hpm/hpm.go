// Package hpm implements the POWER2 hardware performance monitor: 22
// 32-bit counters on the SCU chip, organised as five counters each for the
// FXU, FPU0, FPU1 and SCU groups plus two for the ICU (Welbon, 1994). The
// NAS event selection (Table 1 of the paper) is fixed here, the counters
// wrap at 32 bits, and counting is split between user and system mode —
// the feature that let the paper diagnose the >64-node paging pathology.
package hpm

import "fmt"

// Event identifies one of the 22 selected counter events.
type Event uint8

// The NAS SP2 RS2HPM counter selection (paper Table 1), in group order.
const (
	// FXU group.
	EvFXU0Instr  Event = iota // FXU[0]: instructions executed by FXU 0
	EvFXU1Instr               // FXU[1]: instructions executed by FXU 1
	EvDCacheMiss              // FXU[2]: FPU+FXU requests not in the D-cache
	EvTLBMiss                 // FXU[3]: FPU+FXU requests missing the TLB
	EvCycles                  // FXU[4]: cycles

	// FPU0 group.
	EvFPU0Instr // FPU0[0]: arithmetic instructions executed by Math 0
	EvFPU0Add   // FPU0[1]: floating adds executed by Math 0
	EvFPU0Mul   // FPU0[2]: floating multiplies executed by Math 0
	EvFPU0Div   // FPU0[3]: floating divides executed by Math 0 (broken in hw)
	EvFPU0FMA   // FPU0[4]: floating multiply-adds executed by Math 0

	// FPU1 group.
	EvFPU1Instr // FPU1[0]: arithmetic instructions executed by Math 1
	EvFPU1Add   // FPU1[1]: floating adds executed by Math 1
	EvFPU1Mul   // FPU1[2]: floating multiplies executed by Math 1
	EvFPU1Div   // FPU1[3]: floating divides executed by Math 1 (broken in hw)
	EvFPU1FMA   // FPU1[4]: floating multiply-adds executed by Math 1

	// ICU group.
	EvICUType1 // ICU[0]: type I instructions executed (branches)
	EvICUType2 // ICU[1]: type II instructions executed (condition register)

	// SCU group.
	EvICacheReload // SCU[0]: memory-to-I-cache transfers
	EvDCacheReload // SCU[1]: memory-to-D-cache transfers
	EvDCacheStore  // SCU[2]: D-cache-to-memory castouts of modified data
	EvDMARead      // SCU[3]: memory-to-I/O-device transfers
	EvDMAWrite     // SCU[4]: I/O-device-to-memory transfers

	// NumEvents is the number of selected counters (22).
	NumEvents
)

// Mode distinguishes user-state from system-state counting.
type Mode uint8

// Execution modes.
const (
	User Mode = iota
	System
	numModes
)

// String names the mode.
func (m Mode) String() string {
	if m == User {
		return "user"
	}
	return "system"
}

// CounterInfo describes one Table 1 row.
type CounterInfo struct {
	Event       Event
	Label       string // the RS2HPM label, e.g. "user.fxu0"
	Group       string // hardware group: FXU, FPU0, FPU1, ICU, SCU
	Index       int    // index within the group's five counters
	Description string
}

var table1 = [NumEvents]CounterInfo{
	EvFXU0Instr:    {EvFXU0Instr, "user.fxu0", "FXU", 0, "number of instructions executed by Execution unit 0"},
	EvFXU1Instr:    {EvFXU1Instr, "user.fxu1", "FXU", 1, "number of instructions executed by Execution unit 1"},
	EvDCacheMiss:   {EvDCacheMiss, "user.dcache_mis", "FXU", 2, "FPU and FXU requests for data not in the D-cache"},
	EvTLBMiss:      {EvTLBMiss, "user.tlb_mis", "FXU", 3, "FPU and FXU requests for data not in the TLB"},
	EvCycles:       {EvCycles, "user.cycles", "FXU", 4, "user cycles"},
	EvFPU0Instr:    {EvFPU0Instr, "user.fpu0", "FPU0", 0, "arithmetic instructions executed by Math 0"},
	EvFPU0Add:      {EvFPU0Add, "fpop.fp_add", "FPU0", 1, "floating point adds executed by Math 0"},
	EvFPU0Mul:      {EvFPU0Mul, "fpop.fp_mul", "FPU0", 2, "floating point multiplies executed by Math 0"},
	EvFPU0Div:      {EvFPU0Div, "fpop.fp_div", "FPU0", 3, "floating point divides executed by Math 0"},
	EvFPU0FMA:      {EvFPU0FMA, "fpop.fp_muladd", "FPU0", 4, "floating point multiply-adds executed by Math 0"},
	EvFPU1Instr:    {EvFPU1Instr, "user.fpu1", "FPU1", 0, "arithmetic instructions executed by Math 1"},
	EvFPU1Add:      {EvFPU1Add, "fpop.fp_add", "FPU1", 1, "floating point adds executed by Math 1"},
	EvFPU1Mul:      {EvFPU1Mul, "fpop.fp_mul", "FPU1", 2, "floating point multiplies executed by Math 1"},
	EvFPU1Div:      {EvFPU1Div, "fpop.fp_div", "FPU1", 3, "floating point divides executed by Math 1"},
	EvFPU1FMA:      {EvFPU1FMA, "fpop.fp_muladd", "FPU1", 4, "floating point multiply-adds executed by Math 1"},
	EvICUType1:     {EvICUType1, "user.icu0", "ICU", 0, "number of type I instructions executed"},
	EvICUType2:     {EvICUType2, "user.icu1", "ICU", 1, "number of type II instructions executed"},
	EvICacheReload: {EvICacheReload, "user.icache_reload", "SCU", 0, "data transfers from memory to the I-cache"},
	EvDCacheReload: {EvDCacheReload, "user.dcache_reload", "SCU", 1, "data transfers from memory to the D-cache"},
	EvDCacheStore:  {EvDCacheStore, "user.dcache_store", "SCU", 2, "transfers of modified D-cache data to memory"},
	EvDMARead:      {EvDMARead, "user.dma_read", "SCU", 3, "data transfers from memory to an I/O device"},
	EvDMAWrite:     {EvDMAWrite, "user.dma_write", "SCU", 4, "data transfers to memory from an I/O device"},
}

// Info returns the Table 1 row for an event.
func Info(ev Event) CounterInfo {
	if ev >= NumEvents {
		panic(fmt.Sprintf("hpm: invalid event %d", ev))
	}
	return table1[ev]
}

// Table1 returns the full NAS counter selection in Table 1 order.
func Table1() []CounterInfo {
	out := make([]CounterInfo, NumEvents)
	copy(out, table1[:])
	return out
}

// String returns the RS2HPM label for the event.
func (e Event) String() string {
	if e >= NumEvents {
		return fmt.Sprintf("event(%d)", uint8(e))
	}
	return table1[e].Label
}

// Snapshot is a point-in-time reading of all counters in both modes. The
// values are the raw 32-bit register contents.
type Snapshot struct {
	Counts [numModes][NumEvents]uint32
}

// Get returns the raw register value for one counter.
func (s Snapshot) Get(m Mode, ev Event) uint32 { return s.Counts[m][ev] }

// Delta holds 64-bit event counts between two snapshots, wrap-corrected.
type Delta struct {
	Counts [numModes][NumEvents]uint64
}

// Get returns the count for one counter over the interval.
func (d Delta) Get(m Mode, ev Event) uint64 { return d.Counts[m][ev] }

// Total returns user + system counts for one event.
func (d Delta) Total(ev Event) uint64 {
	return d.Counts[User][ev] + d.Counts[System][ev]
}

// Add accumulates another delta into this one.
func (d *Delta) Add(o Delta) {
	for m := Mode(0); m < numModes; m++ {
		for e := Event(0); e < NumEvents; e++ {
			d.Counts[m][e] += o.Counts[m][e]
		}
	}
}

// Sub computes after - before with single-wrap correction on each 32-bit
// register: provided fewer than 2^32 events occurred in the interval (the
// reason RS2HPM sampled every 15 minutes), the correction is exact. See
// Wrap32Delta for the arithmetic and its double-wrap caveat.
func Sub(before, after Snapshot) Delta {
	var d Delta
	for m := Mode(0); m < numModes; m++ {
		for e := Event(0); e < NumEvents; e++ {
			d.Counts[m][e], _ = Wrap32Delta(before.Counts[m][e], after.Counts[m][e])
		}
	}
	return d
}

// Monitor is the counting hardware on one node's SCU. Not safe for
// concurrent use; the node wraps it behind its own synchronisation.
type Monitor struct {
	counts [numModes][NumEvents]uint32
	mode   Mode

	// router maps hardware signals onto the counter slots of the armed
	// event selection (Table 1's NAS selection by default). divSlot
	// marks the slots the armed selection routes a divide signal to,
	// precomputed so per-count paths (AddDirect in particular, which the
	// campaign's profile extrapolation calls per event per job per tick)
	// avoid two Selection slot compares.
	router  router
	divSlot [NumEvents]bool

	// The paper documents an implementation error in the hardware monitor
	// that prevented proper reporting of divide operations; the fp_div
	// counters always read zero. trueDivides preserves the real count for
	// validation so the bug is modelled, not silently forgotten.
	divBug      bool
	trueDivides [numModes]uint64
}

// New returns a monitor armed with the NAS selection and the hardware
// divide-counter bug enabled, as on the real machine.
func New() *Monitor {
	sel := NASSelection()
	return &Monitor{divBug: true, router: buildRouter(sel), divSlot: buildDivSlots(sel)}
}

// NewWithoutDivBug returns a monitor whose divide counters work. Only
// tests build one, to run their checks with and without the bug.
func NewWithoutDivBug() *Monitor {
	sel := NASSelection()
	return &Monitor{router: buildRouter(sel), divSlot: buildDivSlots(sel)}
}

// SetMode switches between user and system counting state.
func (m *Monitor) SetMode(mode Mode) {
	if mode >= numModes {
		panic(fmt.Sprintf("hpm: invalid mode %d", mode))
	}
	m.mode = mode
}

// Add increments a counter slot by n in the current mode, wrapping at 32
// bits as the hardware does. The slot is addressed by its Table 1 position;
// if the armed selection routes a divide signal there, the hardware bug
// swallows the count.
func (m *Monitor) Add(ev Event, n uint64) {
	if ev >= NumEvents {
		panic(fmt.Sprintf("hpm: invalid event %d", ev))
	}
	if m.divBug && m.divSlot[ev] {
		m.trueDivides[m.mode] += n
		return
	}
	m.counts[m.mode][ev] += uint32(n) // wraps naturally
}

// Snapshot returns the current raw register values.
func (m *Monitor) Snapshot() Snapshot {
	var s Snapshot
	s.Counts = m.counts
	return s
}

// TrueDivides reports the divides the hardware failed to count, for
// validation against the paper's "~3% of total floating operations" note.
func (m *Monitor) TrueDivides(mode Mode) uint64 { return m.trueDivides[mode] }

// Reset zeroes every counter (job prologue on a dedicated node).
func (m *Monitor) Reset() {
	m.counts = [numModes][NumEvents]uint32{}
	m.trueDivides = [numModes]uint64{}
}
