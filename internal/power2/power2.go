// Package power2 is the node CPU model: an in-order, dispatch-accounting
// simulator of the RS6000/590 POWER2 processor as the hardware performance
// monitor sees it.
//
// The model executes an isa.Stream instruction by instruction (the stream
// hands them over a block at a time), applying the structural rules the
// paper describes:
//
//   - the ICU dispatches up to 4 instructions per cycle and executes
//     branches and condition-register ops itself;
//   - floating instructions issue to FPU0 until a dependency or a
//     multicycle operation (divide, sqrt) forces them to FPU1;
//   - the dual FXUs execute all storage references; FXU1 alone handles
//     addressing multiplies/divides, and FXU0 carries the extra burden of
//     cache-miss directory handling;
//   - a D-cache miss stalls execution 8 cycles, a TLB miss 36-54 cycles;
//   - a page fault traps to system mode, where AIX's handler instructions
//     and the disk DMA traffic are counted against the system bank of the
//     monitor — the signature behind the paper's Figure 5.
//
// Every architectural event feeds the hpm.Monitor, so counter-derived rates
// (Mflops, Mips, miss ratios, FPU asymmetry) come out of the same machinery
// the paper used rather than being asserted.
package power2

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/vm"
)

// FPUPolicy selects how floating instructions choose a unit.
type FPUPolicy uint8

// FPU issue policies. FPU0First is the POWER2 behaviour; RoundRobin exists
// for the ablation bench (it destroys the paper's 1.7 asymmetry).
const (
	FPU0First FPUPolicy = iota
	RoundRobin
)

// Config parameterises a CPU. Zero values select the paper's machine.
type Config struct {
	// DCache, ICache and TLB override the SP2 geometries when non-nil.
	DCache *cache.Config
	ICache *cache.Config
	TLB    *tlb.Config

	// Memory, when non-nil, enables the paging model with the given
	// physical capacity. Nil means every page is resident (a node whose
	// job fits in memory).
	MemoryBytes uint64

	// FPU issue policy (ablation hook).
	Policy FPUPolicy

	// QuadCountsAsTwo, when true, counts a quad load/store as two FXU
	// instructions instead of one (ablation hook; the real monitor counts
	// one, which is why the paper's flop/memref ratio reads ~0.5).
	QuadCountsAsTwo bool

	// PageFaultCycles is the system-mode cost of one page-in fault (a
	// previously evicted page returning from paging space); zero selects
	// the default (~10000 cycles: AIX fault path plus amortised
	// paging-disk service).
	PageFaultCycles uint64
	// PageFaultInstrs is the number of system-mode handler instructions
	// charged per page-in; zero selects the default (3000).
	PageFaultInstrs uint64
	// ZeroFillCycles / ZeroFillInstrs cost a first-touch fault (frame
	// allocation and zeroing, no disk); zero selects ~800 cycles and 300
	// instructions.
	ZeroFillCycles uint64
	ZeroFillInstrs uint64

	// Seed drives the stochastic TLB penalty draw (36-54 cycles).
	Seed uint64
}

const (
	defaultPageFaultCycles = 10000
	defaultPageFaultInstrs = 3000
	defaultZeroFillCycles  = 800
	defaultZeroFillInstrs  = 300
	// dmaBytesPerTransfer: a DMA transfer moves 4 or 8 words; we account
	// page traffic in 8-word (64-byte) transfers.
	dmaBytesPerTransfer = 64
)

func sp2DCacheConfig() cache.Config {
	return cache.Config{
		SizeBytes:     units.DCacheBytes,
		LineBytes:     units.DCacheLineBytes,
		Ways:          units.DCacheWays,
		Policy:        cache.LRU,
		WriteAllocate: true,
	}
}

func sp2ICacheConfig() cache.Config {
	return cache.Config{
		SizeBytes:     units.ICacheBytes,
		LineBytes:     units.ICacheLineBytes,
		Ways:          units.ICacheWays,
		Policy:        cache.LRU,
		WriteAllocate: true,
	}
}

func sp2TLBConfig() tlb.Config {
	return tlb.Config{Entries: units.TLBEntries, Ways: units.TLBWays, PageBytes: units.PageBytes}
}

// CPU is one POWER2 processor. Not safe for concurrent use.
type CPU struct {
	cfg    Resolved
	dcache *cache.Cache
	icache *cache.Cache
	tlb    *tlb.TLB
	vmm    *vm.Manager
	mon    *hpm.Monitor
	rnd    *rng.Source

	cycle     uint64 // current dispatch cycle
	lastCount uint64 // cycles already credited to the monitor

	// Per-cycle dispatch occupancy.
	slotCycle uint64
	slots     int
	unitSlots [4]int // per isa.Unit; FPU, FXU and ICU each issue 2 a cycle

	// Register scoreboard: cycle at which each register's value is ready.
	fprReady [32]uint64
	gprReady [32]uint64
	// fprUnit records which FPU produced each register last, so accumulator
	// chains keep unit affinity (result forwarding stays local).
	fprUnit [32]uint8

	// Unit occupancy: first cycle at which the unit can accept an issue.
	fpuFree [2]uint64
	fxuFree [2]uint64

	rrNext int // round-robin state for the ablation policy

	// pend batches user-mode counter increments so the monitor's routing
	// runs once per signal per Run instead of once per event. Counter
	// banks are 32-bit accumulators under a fixed mode, so deferring the
	// adds is exact: uint32 addition is commutative and associative mod
	// 2^32, and every path that switches the monitor's mode or hands
	// control back to the caller flushes first (drain, the fault
	// handlers). Invariant: pend is all-zero whenever Run returns.
	pend [hpm.NumSignals]uint64

	// block is the buffer RunLimited fills from the stream; nil until the
	// CPU first runs.
	block *[blockLen]isa.Instr

	// fetchLine is 1 + the I-cache line of the previous fetch (0 before
	// the first), and iLineShift the I-cache line size as a shift.
	fetchLine  uint64
	iLineShift uint

	stats RunStats
}

// blockLen is how many instructions RunLimited asks a stream for at once.
const blockLen = 64

// signal batches a user-mode monitor signal for the current Run.
//
//hpmlint:hotpath fires once per modelled event inside the cycle loop
func (c *CPU) signal(sig hpm.Signal, n uint64) {
	c.pend[sig] += n
}

// flushPend pushes all batched signals into the monitor. Must be called
// before any monitor mode switch or counter read.
//
//hpmlint:hotpath runs between every monitor mode switch; TestRunLimitedAllocFree guards the same path
func (c *CPU) flushPend() {
	for sig := range c.pend {
		if n := c.pend[sig]; n != 0 {
			c.mon.Signal(hpm.Signal(sig), n)
			c.pend[sig] = 0
		}
	}
}

// RunStats summarises one Run at the architectural level (the monitor holds
// the counter-level view).
type RunStats struct {
	Instructions uint64
	Cycles       uint64
	Flops        uint64
	MemRefs      uint64 // storage-reference instructions (quad = 1)
	PageFaults   uint64
}

// IPC reports instructions per cycle.
func (s RunStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// FlopsPerCycle reports floating-point operations per cycle.
func (s RunStats) FlopsPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Flops) / float64(s.Cycles)
}

// Mflops converts the run to a Mflops rate at the SP2 clock.
func (s RunStats) Mflops() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Flops) / (float64(s.Cycles) / units.ClockHz) / 1e6
}

// Resolved is a Config with every default applied and the geometry
// pointers flattened into values. It is a plain comparable struct, so two
// Configs that Resolve() equal build behaviourally identical CPUs — which
// is exactly what makes it usable as a memoization key (the profile
// store's cache key is built on it).
type Resolved struct {
	DCache          cache.Config
	ICache          cache.Config
	TLB             tlb.Config
	MemoryBytes     uint64
	Policy          FPUPolicy
	QuadCountsAsTwo bool
	PageFaultCycles uint64
	PageFaultInstrs uint64
	ZeroFillCycles  uint64
	ZeroFillInstrs  uint64
	Seed            uint64
}

// Resolve applies the paper's-machine defaults, producing the canonical
// form of the configuration.
//
//hpmlint:pure the profile store keys on Resolved; resolution must be a pure function of Config
func (cfg Config) Resolve() Resolved {
	r := Resolved{
		DCache:          sp2DCacheConfig(),
		ICache:          sp2ICacheConfig(),
		TLB:             sp2TLBConfig(),
		MemoryBytes:     cfg.MemoryBytes,
		Policy:          cfg.Policy,
		QuadCountsAsTwo: cfg.QuadCountsAsTwo,
		PageFaultCycles: cfg.PageFaultCycles,
		PageFaultInstrs: cfg.PageFaultInstrs,
		ZeroFillCycles:  cfg.ZeroFillCycles,
		ZeroFillInstrs:  cfg.ZeroFillInstrs,
		Seed:            cfg.Seed,
	}
	if cfg.DCache != nil {
		r.DCache = *cfg.DCache
	}
	if cfg.ICache != nil {
		r.ICache = *cfg.ICache
	}
	if cfg.TLB != nil {
		r.TLB = *cfg.TLB
	}
	if r.PageFaultCycles == 0 {
		r.PageFaultCycles = defaultPageFaultCycles
	}
	if r.PageFaultInstrs == 0 {
		r.PageFaultInstrs = defaultPageFaultInstrs
	}
	if r.ZeroFillCycles == 0 {
		r.ZeroFillCycles = defaultZeroFillCycles
	}
	if r.ZeroFillInstrs == 0 {
		r.ZeroFillInstrs = defaultZeroFillInstrs
	}
	return r
}

// New builds a CPU with the given configuration.
func New(cfg Config) *CPU {
	return NewResolved(cfg.Resolve())
}

// NewResolved builds a CPU from an already-resolved configuration.
func NewResolved(r Resolved) *CPU {
	c := &CPU{
		cfg:        r,
		dcache:     cache.New(r.DCache),
		icache:     cache.New(r.ICache),
		tlb:        tlb.New(r.TLB),
		mon:        hpm.New(),
		rnd:        rng.New(r.Seed),
		iLineShift: uint(bits.TrailingZeros64(uint64(r.ICache.LineBytes))),
	}
	if r.MemoryBytes > 0 {
		c.vmm = vm.New(r.MemoryBytes, r.TLB.PageBytes)
	}
	return c
}

// Monitor exposes the hardware performance monitor (the node's SCU
// counters); callers take snapshots and compute deltas through it.
func (c *CPU) Monitor() *hpm.Monitor { return c.mon }

// VM exposes the paging manager; nil when paging is disabled.
func (c *CPU) VM() *vm.Manager { return c.vmm }

// Cycle reports the current cycle count.
func (c *CPU) Cycle() uint64 { return c.cycle }

// creditCycles pushes un-credited elapsed cycles into the monitor's cycles
// counter under the current mode.
func (c *CPU) creditCycles() {
	if c.cycle > c.lastCount {
		c.signal(hpm.SigCycles, c.cycle-c.lastCount)
		c.lastCount = c.cycle
	}
}

// advanceTo moves the dispatch cycle forward, crediting elapsed cycles.
func (c *CPU) advanceTo(cycle uint64) {
	if cycle <= c.cycle {
		return
	}
	c.cycle = cycle
	c.creditCycles()
	if c.slotCycle != c.cycle {
		c.slotCycle = c.cycle
		c.slots, c.unitSlots = 0, [4]int{}
	}
}

func max2(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// srcReady returns the cycle at which all of the instruction's named
// sources are ready in the register file's scoreboard.
func srcReady(file *[32]uint64, in *isa.Instr) uint64 {
	ready := uint64(0)
	if in.SrcA != isa.NoReg {
		ready = file[in.SrcA%32]
	}
	if in.SrcB != isa.NoReg {
		ready = max2(ready, file[in.SrcB%32])
	}
	if in.SrcC != isa.NoReg {
		ready = max2(ready, file[in.SrcC%32])
	}
	return ready
}

// takeSlot consumes a dispatch slot of the unit class (FPU, FXU or ICU),
// first advancing to the next cycle when the 4-wide dispatch group or the
// class's two issue ports are exhausted. A new cycle starts an empty
// group, so one advance always frees a slot.
func (c *CPU) takeSlot(unit isa.Unit) {
	if c.slotCycle != c.cycle {
		c.slotCycle = c.cycle
		c.slots, c.unitSlots = 0, [4]int{}
	}
	if c.slots >= units.DispatchWidth || c.unitSlots[unit] >= 2 {
		c.advanceTo(c.cycle + 1)
	}
	c.slots++
	c.unitSlots[unit]++
}

// Run executes the whole stream and returns the architectural summary.
// Counter effects accumulate in the Monitor across calls; use the monitor's
// snapshots for deltas.
func (c *CPU) Run(stream isa.Stream) RunStats {
	return c.RunLimited(stream, math.MaxUint64)
}

// RunLimited executes at most n instructions from the stream: it fills a
// block, cut to the instructions left, executes it, and repeats until n
// instructions have run or the stream ends. It never asks the stream for
// more than n instructions, so a stream resumes across calls exactly
// where the last one stopped.
func (c *CPU) RunLimited(stream isa.Stream, n uint64) RunStats {
	start := c.stats
	startCycle := c.cycle
	if c.block == nil {
		// Allocated on a CPU's first run: campaign nodes, which never
		// execute an instruction, do not carry the buffer.
		c.block = new([blockLen]isa.Instr)
	}
	for n > 0 {
		blk := c.block[:]
		if n < blockLen {
			blk = blk[:n]
		}
		k := stream.Fill(blk)
		if k == 0 {
			break
		}
		for i := range blk[:k] {
			c.execute(&blk[i])
		}
		n -= uint64(k)
	}
	c.drain()
	return RunStats{
		Instructions: c.stats.Instructions - start.Instructions,
		Cycles:       c.cycle - startCycle,
		Flops:        c.stats.Flops - start.Flops,
		MemRefs:      c.stats.MemRefs - start.MemRefs,
		PageFaults:   c.stats.PageFaults - start.PageFaults,
	}
}

// drain advances the clock past all in-flight results and synchronises the
// cycle statistic.
func (c *CPU) drain() {
	latest := c.cycle
	for _, r := range c.fprReady {
		latest = max2(latest, r)
	}
	for _, r := range c.gprReady {
		latest = max2(latest, r)
	}
	latest = max2(latest, max2(c.fpuFree[0], c.fpuFree[1]))
	latest = max2(latest, max2(c.fxuFree[0], c.fxuFree[1]))
	c.advanceTo(latest)
	c.flushPend()
	c.stats.Cycles = c.cycle
}

// execute models one instruction: fetch, dispatch, unit timing, memory
// hierarchy, and the monitor signals each step raises.
//
//hpmlint:hotpath the per-instruction path of the zero-alloc microsim contract
func (c *CPU) execute(in *isa.Instr) {
	if !in.Op.Valid() {
		panic(fmt.Sprintf("power2: invalid instruction %v", in.Op))
	}
	// Instruction fetch through the I-cache; a miss stalls the pipeline
	// while the line reloads. Only fetches reach the I-cache, so a fetch
	// from the previous fetch's line is a hit on its most recently used
	// line and skips the lookup. Skipping it changes no outcome: the
	// line stays the most recently used, so the LRU order, and with it
	// every later hit, miss and victim, is the same. Only the I-cache's
	// own hit count, which nothing reads, leaves the repeats out.
	if line := in.PC>>c.iLineShift + 1; line != c.fetchLine {
		c.fetchLine = line
		if !c.icache.Access(in.PC, false) {
			c.signal(hpm.SigICacheReload, 1)
			c.advanceTo(c.cycle + units.CacheMissPenaltyCycles)
		}
	}

	switch in.Op.Unit() {
	case isa.UnitFPU:
		c.executeFPU(in)
	case isa.UnitFXU:
		c.executeFXU(in)
	case isa.UnitICU:
		c.executeICU(in)
	}
	c.stats.Instructions++
}

func (c *CPU) executeFPU(in *isa.Instr) {
	c.takeSlot(isa.UnitFPU)

	ready := srcReady(&c.fprReady, in)

	// Steering: FPU0 is the preferred unit; an instruction spills to FPU1
	// only when FPU0 cannot accept it as early (it is draining a multicycle
	// op, or an independent instruction is ready while FPU0 is occupied by
	// the one just issued). Serial dependency chains therefore stay on
	// FPU0, and bursts of independent work split across both — which is
	// what produces the paper's 1.7 asymmetry for the workload and
	// near-1.0 ratios for high-ILP codes.
	var unit int
	if c.cfg.Policy == RoundRobin {
		unit = c.rrNext
		c.rrNext = 1 - c.rrNext
	} else if in.Op.IsMulticycle() {
		// Divide and square root drain on the second unit, whose backup
		// register lets FPU0 continue with the main stream (paper §5).
		unit = 1
	} else {
		t0 := max2(ready, c.fpuFree[0])
		t1 := max2(ready, c.fpuFree[1])
		switch {
		case t1 < t0:
			unit = 1
		case t0 < t1:
			unit = 0
		default:
			// Tie: an accumulator chain (destination also a source) stays
			// on the unit that produced it; anything else prefers FPU0.
			if in.Dst != isa.NoReg &&
				(in.Dst == in.SrcA || in.Dst == in.SrcB || in.Dst == in.SrcC) {
				unit = int(c.fprUnit[in.Dst%32])
			}
		}
	}

	issue := max2(c.cycle, max2(ready, c.fpuFree[unit]))
	c.advanceTo(issue)

	lat := uint64(in.Op.Latency())
	if in.Op.IsMulticycle() {
		// Divide/sqrt monopolise the unit.
		c.fpuFree[unit] = issue + lat
	} else {
		c.fpuFree[unit] = issue + 1 // pipelined: one issue per cycle
	}
	if in.Dst != isa.NoReg {
		c.fprReady[in.Dst%32] = issue + lat
		c.fprUnit[in.Dst%32] = uint8(unit)
	}

	c.countFPU(unit, in.Op)
	c.stats.Flops += uint64(in.Op.Flops())
}

func (c *CPU) countFPU(unit int, op isa.Op) {
	var instrSig, addSig, mulSig, divSig, fmaSig, sqrtSig hpm.Signal
	if unit == 0 {
		instrSig, addSig, mulSig, divSig, fmaSig, sqrtSig =
			hpm.SigFPU0Instr, hpm.SigFPU0Add, hpm.SigFPU0Mul, hpm.SigFPU0Div, hpm.SigFPU0FMA, hpm.SigFPU0Sqrt
	} else {
		instrSig, addSig, mulSig, divSig, fmaSig, sqrtSig =
			hpm.SigFPU1Instr, hpm.SigFPU1Add, hpm.SigFPU1Mul, hpm.SigFPU1Div, hpm.SigFPU1FMA, hpm.SigFPU1Sqrt
	}
	c.signal(instrSig, 1)
	switch op {
	case isa.OpFAdd:
		c.signal(addSig, 1)
	case isa.OpFMul:
		c.signal(mulSig, 1)
	case isa.OpFDiv:
		c.signal(divSig, 1)
	case isa.OpFSqrt:
		c.signal(sqrtSig, 1)
	case isa.OpFMA:
		// The fma's add lands in the add counter, the fma itself in the
		// muladd counter (paper §5).
		c.signal(addSig, 1)
		c.signal(fmaSig, 1)
	}
}

func (c *CPU) executeFXU(in *isa.Instr) {
	c.takeSlot(isa.UnitFXU)

	ready := srcReady(&c.gprReady, in)

	var unit int
	switch {
	case in.Op.NeedsFXU1():
		unit = 1
	case c.fxuFree[1] <= c.cycle:
		// FXU1 is preferred when it can accept this cycle: FXU0 carries the
		// cache-miss directory work, so the dispatcher keeps it available.
		// This is the structural source of the paper's FXU1 > FXU0
		// asymmetry (Table 3: 16.5 vs 11.1 Mips).
		unit = 1
	default:
		unit = 0
	}

	issue := max2(c.cycle, max2(ready, c.fxuFree[unit]))
	c.advanceTo(issue)
	lat := uint64(in.Op.Latency())
	c.fxuFree[unit] = issue + 1
	if in.Op == isa.OpIntMulDiv {
		c.fxuFree[unit] = issue + lat
	}

	if unit == 0 {
		c.signal(hpm.SigFXU0Instr, 1)
	} else {
		c.signal(hpm.SigFXU1Instr, 1)
	}
	if in.Op.NeedsFXU1() {
		c.signal(hpm.SigFXUAddrMulDiv, 1)
	}
	if c.cfg.QuadCountsAsTwo && in.Op.IsQuad() {
		// Ablation: count the second doubleword as another instruction on
		// the same unit.
		if unit == 0 {
			c.signal(hpm.SigFXU0Instr, 1)
		} else {
			c.signal(hpm.SigFXU1Instr, 1)
		}
		c.stats.Instructions++
	}

	if in.Op.IsMemory() {
		c.stats.MemRefs++
		if in.Op.IsStore() {
			c.signal(hpm.SigFXUStores, 1)
		} else {
			c.signal(hpm.SigFXULoads, 1)
		}
		c.accessMemory(in)
	}

	if in.Dst != isa.NoReg {
		c.gprReady[in.Dst%32] = issue + lat
	}
}

// accessMemory runs the address through the paging model, the TLB and the
// D-cache, applying stalls and counting monitor events.
func (c *CPU) accessMemory(in *isa.Instr) {
	isStore := in.Op.IsStore()

	if c.vmm != nil {
		switch c.vmm.Touch(in.Addr, isStore) {
		case vm.ZeroFill:
			c.zeroFillFault()
		case vm.PageIn:
			c.pageFault(isStore)
		}
	}

	if !c.tlb.Translate(in.Addr) {
		c.signal(hpm.SigTLBMiss, 1)
		penalty := uint64(c.rnd.IntRange(units.TLBMissPenaltyMinCycles, units.TLBMissPenaltyMaxCycles))
		c.advanceTo(c.cycle + penalty)
	}

	castoutsBefore := c.dcache.Castouts()
	if !c.dcache.Access(in.Addr, isStore) {
		c.signal(hpm.SigDCacheMiss, 1)
		c.signal(hpm.SigDCacheReload, 1)
		// FXU0 performs the D-cache directory search for the miss.
		c.signal(hpm.SigFXU0DirSearch, 1)
		c.advanceTo(c.cycle + units.CacheMissPenaltyCycles)
	}
	if co := c.dcache.Castouts() - castoutsBefore; co > 0 {
		c.signal(hpm.SigDCacheStore, co)
	}
}

// zeroFillFault charges the cheap first-touch path: AIX allocates and
// zeroes a frame entirely in memory.
func (c *CPU) zeroFillFault() {
	c.stats.PageFaults++
	c.creditCycles()
	c.flushPend()
	c.mon.SetMode(hpm.System)
	n := c.cfg.ZeroFillInstrs
	c.mon.Signal(hpm.SigFXU0Instr, n*4/10)
	c.mon.Signal(hpm.SigFXU1Instr, n*4/10)
	c.mon.Signal(hpm.SigICUType1, n*2/10)
	c.mon.Signal(hpm.SigCycles, c.cfg.ZeroFillCycles)
	c.mon.SetMode(hpm.User)
	c.cycle += c.cfg.ZeroFillCycles
	c.lastCount = c.cycle
}

// pageFault charges the heavy AIX fault path for a page returning from
// paging space: system-mode handler instructions, system-mode cycles, and
// the disk DMA traffic for the page transfer.
func (c *CPU) pageFault(dirty bool) {
	c.stats.PageFaults++
	c.creditCycles()
	c.flushPend()
	c.mon.SetMode(hpm.System)

	// Handler instruction mix: storage references and branches dominate.
	n := c.cfg.PageFaultInstrs
	c.mon.Signal(hpm.SigFXU0Instr, n*4/10)
	c.mon.Signal(hpm.SigFXU1Instr, n*4/10)
	c.mon.Signal(hpm.SigICUType1, n*2/10)
	c.mon.Signal(hpm.SigCycles, c.cfg.PageFaultCycles)
	// The fault service time is I/O wait — invisible to the NAS
	// selection, visible to the I/O-wait selection the paper recommends.
	c.mon.Signal(hpm.SigIOWaitCycles, c.cfg.PageFaultCycles)
	c.mon.Signal(hpm.SigPageIns, 1)

	// Page-in: 4096 bytes at 64 bytes per DMA transfer.
	transfers := uint64(units.PageBytes / dmaBytesPerTransfer)
	c.mon.Signal(hpm.SigDMAWrite, transfers) // device-to-memory
	if dirty {
		// Stealing a dirty frame forces a page-out too (approximation:
		// charge it with the fault that caused the steal).
		c.mon.Signal(hpm.SigDMARead, transfers) // memory-to-device
	}

	c.mon.SetMode(hpm.User)
	// The faulting process is suspended for the fault service time.
	c.cycle += c.cfg.PageFaultCycles
	c.lastCount = c.cycle // system cycles were credited above
}

func (c *CPU) executeICU(in *isa.Instr) {
	c.takeSlot(isa.UnitICU)
	switch in.Op {
	case isa.OpBranch:
		c.signal(hpm.SigICUType1, 1)
		c.signal(hpm.SigBranchTaken, 1)
		// A taken branch ends the dispatch group: the next instruction
		// dispatches no earlier than the following cycle.
		c.advanceTo(c.cycle + 1)
	case isa.OpCondReg:
		c.signal(hpm.SigICUType2, 1)
	}
}

// AddIOWait charges cycles the node spent waiting on I/O (message receipt,
// disk service) to the I/O-wait signal — invisible under the NAS selection,
// countable under the I/O-wait selection.
func (c *CPU) AddIOWait(cycles uint64) {
	c.mon.Signal(hpm.SigIOWaitCycles, cycles)
}

// AddDMA lets the node account I/O DMA traffic (message passing, disk)
// against the SCU counters; the CPU is not involved in the transfer.
// Counts are in DMA transfers (4-8 words each).
func (c *CPU) AddDMA(reads, writes uint64) {
	c.mon.Signal(hpm.SigDMARead, reads)
	c.mon.Signal(hpm.SigDMAWrite, writes)
	c.mon.Signal(hpm.SigSwitchMsgBytes, reads+writes)
}

// Elapsed reports cycles as simulated seconds at the SP2 clock.
func (c *CPU) Elapsed() float64 { return units.Cycles(c.cycle).Seconds() }
