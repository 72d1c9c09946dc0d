package power2

import (
	"testing"
	"testing/quick"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/units"
)

// fmaKernel builds a cache-resident, dependency-free fma loop: the best
// case for the POWER2 (4 flops/cycle peak).
func fmaKernel(iters uint64) *isa.Loop {
	b := isa.NewBuilder()
	// Four independent fma chains per loop body with distinct accumulators
	// (fma latency is 2, so two chains per unit keep both FPUs saturated),
	// operands preloaded in registers: no memory traffic.
	x, y := uint8(8), uint8(9)
	for acc := uint8(0); acc < 4; acc++ {
		b.FMA(acc, x, y, acc)
	}
	return b.Build(iters, 0x10000)
}

func userDelta(c *CPU) hpm.Delta {
	return hpm.Sub(hpm.Snapshot{}, c.Monitor().Snapshot())
}

func TestFMAKernelCounts(t *testing.T) {
	c := New(Config{})
	st := c.Run(fmaKernel(1000))
	if st.Instructions != 4000 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
	if st.Flops != 8000 {
		t.Fatalf("flops = %d, want 8000 (4 fma x 2 flops x 1000)", st.Flops)
	}
	d := userDelta(c)
	// fma counting convention: each fma ticks the add counter AND the fma
	// counter on its unit.
	adds := d.Get(hpm.User, hpm.EvFPU0Add) + d.Get(hpm.User, hpm.EvFPU1Add)
	fmas := d.Get(hpm.User, hpm.EvFPU0FMA) + d.Get(hpm.User, hpm.EvFPU1FMA)
	if adds != 4000 || fmas != 4000 {
		t.Fatalf("adds=%d fmas=%d, want 4000 each", adds, fmas)
	}
	instr := d.Get(hpm.User, hpm.EvFPU0Instr) + d.Get(hpm.User, hpm.EvFPU1Instr)
	if instr != 4000 {
		t.Fatalf("FPU instructions = %d", instr)
	}
}

func TestSerialChainStaysOnFPU0(t *testing.T) {
	// A fully serial dependency chain never finds FPU1 earlier than FPU0,
	// so it stays on the preferred unit.
	b := isa.NewBuilder()
	b.FMA(0, 0, 1, 0) // acc = acc*r1 + acc: depends on itself
	c := New(Config{})
	c.Run(b.Build(1000, 0))
	d := userDelta(c)
	fpu0 := d.Get(hpm.User, hpm.EvFPU0Instr)
	if fpu0 < 1000 {
		t.Fatalf("serial chain executed only %d instrs on FPU0", fpu0)
	}
}

func TestMulticycleOpsDrainOnFPU1(t *testing.T) {
	// Divides and square roots process on the second unit while its backup
	// register lets FPU0 continue with the main stream (paper §5).
	b := isa.NewBuilder()
	b.FDiv(0, 0, 1) // serial divides
	b.FAdd(2, 2, 4) // serial add chain: must keep flowing on FPU0
	c := New(Config{})
	c.Run(b.Build(200, 0))
	d := userDelta(c)
	if got := d.Get(hpm.User, hpm.EvFPU1Instr); got != 200 {
		t.Fatalf("FPU1 executed %d instructions, want the 200 divides", got)
	}
	if got := d.Get(hpm.User, hpm.EvFPU0Add); got != 200 {
		t.Fatalf("FPU0 executed %d adds, want 200", got)
	}
}

func TestIndependentPairsSplitAcrossFPUs(t *testing.T) {
	c := New(Config{})
	c.Run(fmaKernel(1000))
	d := userDelta(c)
	f0 := d.Get(hpm.User, hpm.EvFPU0Instr)
	f1 := d.Get(hpm.User, hpm.EvFPU1Instr)
	if f0 == 0 || f1 == 0 {
		t.Fatalf("FPU split degenerate: %d/%d", f0, f1)
	}
	// FPU0 must do at least as much as FPU1 under FPU0-first issue.
	if f0 < f1 {
		t.Fatalf("FPU0 (%d) < FPU1 (%d) under FPU0-first policy", f0, f1)
	}
}

func TestRoundRobinAblationBalancesFPUs(t *testing.T) {
	c := New(Config{Policy: RoundRobin})
	c.Run(fmaKernel(1000))
	d := userDelta(c)
	f0 := d.Get(hpm.User, hpm.EvFPU0Instr)
	f1 := d.Get(hpm.User, hpm.EvFPU1Instr)
	if f0 != f1 {
		t.Fatalf("round robin should balance exactly: %d vs %d", f0, f1)
	}
}

func TestPeakKernelApproachesPeakRate(t *testing.T) {
	c := New(Config{})
	st := c.Run(fmaKernel(100000))
	// 2 independent fma/cycle = 4 flops/cycle = ~267 Mflops at 66.7 MHz.
	// Allow warm-up slack.
	if got := st.FlopsPerCycle(); got < 3.5 {
		t.Fatalf("peak kernel flops/cycle = %v, want ~4", got)
	}
	if mf := st.Mflops(); mf < 230 || mf > 270 {
		t.Fatalf("peak kernel Mflops = %v, want ~267", mf)
	}
}

func TestCyclesCounterMatchesRunCycles(t *testing.T) {
	c := New(Config{})
	st := c.Run(fmaKernel(500))
	d := userDelta(c)
	if got := d.Get(hpm.User, hpm.EvCycles); got != st.Cycles {
		t.Fatalf("cycles counter = %d, run cycles = %d", got, st.Cycles)
	}
}

func TestStreamingLoadsMissEvery32(t *testing.T) {
	b := isa.NewBuilder()
	b.Load(0, isa.Ref{Base: 0x100000, Stride: 8})
	c := New(Config{})
	const n = 32 * 256
	st := c.Run(b.Build(n, 0))
	d := userDelta(c)
	misses := d.Get(hpm.User, hpm.EvDCacheMiss)
	if misses != n/32 {
		t.Fatalf("misses = %d, want %d", misses, n/32)
	}
	reloads := d.Get(hpm.User, hpm.EvDCacheReload)
	if reloads != misses {
		t.Fatalf("reloads = %d != misses %d", reloads, misses)
	}
	if st.MemRefs != n {
		t.Fatalf("memrefs = %d", st.MemRefs)
	}
}

func TestTLBMissStallsBetween36And54(t *testing.T) {
	// One load per page: every access TLB-misses after the first pages.
	b := isa.NewBuilder()
	b.Load(0, isa.Ref{Base: 0, Stride: int64(units.PageBytes)})
	c := New(Config{})
	const n = 2048 // > 512 TLB entries
	st := c.Run(b.Build(n, 0))
	d := userDelta(c)
	tlbMisses := d.Get(hpm.User, hpm.EvTLBMiss)
	if tlbMisses != n {
		t.Fatalf("TLB misses = %d, want %d (one per new page)", tlbMisses, n)
	}
	// Each miss stalls 36-54 cycles plus the cache miss 8: average cycle
	// cost must be within those bounds.
	perRef := float64(st.Cycles) / float64(n)
	if perRef < 36 || perRef > 75 {
		t.Fatalf("cycles per page-stride ref = %v, want ~45-60", perRef)
	}
}

func TestDirtyCastoutsCountDCacheStore(t *testing.T) {
	// Stream stores over a range far exceeding the cache: every line
	// eventually evicts dirty.
	b := isa.NewBuilder()
	b.Store(0, isa.Ref{Base: 0, Stride: 8})
	c := New(Config{})
	const n = 64 * 1024 // 512 KB of stores = 2x cache size
	c.Run(b.Build(n, 0))
	d := userDelta(c)
	if d.Get(hpm.User, hpm.EvDCacheStore) == 0 {
		t.Fatal("no castouts counted for streaming stores")
	}
}

func TestICacheMissOnlyOnFirstTrip(t *testing.T) {
	c := New(Config{})
	c.Run(fmaKernel(10000))
	d := userDelta(c)
	// The loop body is one I-cache line; all iterations after the first
	// hit. (20000 instructions, at most a couple of reloads.)
	if got := d.Get(hpm.User, hpm.EvICacheReload); got > 2 {
		t.Fatalf("icache reloads = %d, want <= 2 for a tight loop", got)
	}
}

func TestBranchesCountICUType1(t *testing.T) {
	b := isa.NewBuilder()
	b.FAdd(0, 1, 2)
	b.Branch()
	c := New(Config{})
	c.Run(b.Build(100, 0))
	d := userDelta(c)
	if got := d.Get(hpm.User, hpm.EvICUType1); got != 100 {
		t.Fatalf("ICU type I = %d, want 100", got)
	}
}

func TestCondRegCountsICUType2(t *testing.T) {
	b := isa.NewBuilder()
	b.CondReg()
	c := New(Config{})
	c.Run(b.Build(50, 0))
	d := userDelta(c)
	if got := d.Get(hpm.User, hpm.EvICUType2); got != 50 {
		t.Fatalf("ICU type II = %d, want 50", got)
	}
}

func TestFXU1PreferredOverFXU0(t *testing.T) {
	b := isa.NewBuilder()
	b.Load(0, isa.Ref{Base: 0, Stride: 8, WorkingSet: 4096})
	b.FAdd(1, 1, 2)
	b.Branch()
	c := New(Config{})
	c.Run(b.Build(5000, 0))
	d := userDelta(c)
	f0 := d.Get(hpm.User, hpm.EvFXU0Instr)
	f1 := d.Get(hpm.User, hpm.EvFXU1Instr)
	if f1 <= f0 {
		t.Fatalf("FXU1 (%d) should exceed FXU0 (%d), as in Table 3", f1, f0)
	}
}

func TestIntMulDivOnlyOnFXU1(t *testing.T) {
	b := isa.NewBuilder()
	b.IntMulDiv(0, 1)
	c := New(Config{})
	c.Run(b.Build(100, 0))
	d := userDelta(c)
	if got := d.Get(hpm.User, hpm.EvFXU0Instr); got != 0 {
		t.Fatalf("addressing mul/div ran on FXU0: %d", got)
	}
	if got := d.Get(hpm.User, hpm.EvFXU1Instr); got != 100 {
		t.Fatalf("FXU1 = %d, want 100", got)
	}
}

func TestQuadCountsAsOneInstructionByDefault(t *testing.T) {
	b := isa.NewBuilder()
	b.LoadQuad(0, isa.Ref{Base: 0, Stride: 16, WorkingSet: 4096})
	c := New(Config{})
	st := c.Run(b.Build(100, 0))
	d := userDelta(c)
	fxu := d.Get(hpm.User, hpm.EvFXU0Instr) + d.Get(hpm.User, hpm.EvFXU1Instr)
	if fxu != 100 {
		t.Fatalf("quad loads counted as %d FXU instructions, want 100", fxu)
	}
	if st.Instructions != 100 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
}

func TestQuadAblationCountsTwo(t *testing.T) {
	b := isa.NewBuilder()
	b.LoadQuad(0, isa.Ref{Base: 0, Stride: 16, WorkingSet: 4096})
	c := New(Config{QuadCountsAsTwo: true})
	c.Run(b.Build(100, 0))
	d := userDelta(c)
	fxu := d.Get(hpm.User, hpm.EvFXU0Instr) + d.Get(hpm.User, hpm.EvFXU1Instr)
	if fxu != 200 {
		t.Fatalf("ablated quad count = %d FXU instructions, want 200", fxu)
	}
}

func TestDivideBugSwallowsDivCounts(t *testing.T) {
	b := isa.NewBuilder()
	b.FDiv(0, 0, 2) // self-dependent: fully serial divides
	c := New(Config{})
	st := c.Run(b.Build(100, 0))
	d := userDelta(c)
	if d.Get(hpm.User, hpm.EvFPU0Div)+d.Get(hpm.User, hpm.EvFPU1Div) != 0 {
		t.Fatal("divide counters must read 0")
	}
	if c.Monitor().TrueDivides(hpm.User) != 100 {
		t.Fatalf("TrueDivides = %d", c.Monitor().TrueDivides(hpm.User))
	}
	// The divide still costs flops architecturally and 10 cycles each.
	if st.Flops != 100 {
		t.Fatalf("flops = %d", st.Flops)
	}
	if st.Cycles < 900 {
		t.Fatalf("cycles = %d, want ~1000 for 100 serial 10-cycle divides", st.Cycles)
	}
}

func TestPagingChargesSystemMode(t *testing.T) {
	// 64 KB of memory but a 1 MB working set swept repeatedly: after the
	// first pass every touch is a page-in from paging space.
	b := isa.NewBuilder()
	b.Load(0, isa.Ref{Base: 0, Stride: int64(units.PageBytes), WorkingSet: 1 << 20})
	c := New(Config{MemoryBytes: 64 * 1024})
	const n = 4096
	st := c.Run(b.Build(n, 0))
	if st.PageFaults == 0 {
		t.Fatal("no page faults under oversubscription")
	}
	d := userDelta(c)
	ratio := hpm.SystemUserFXURatio(d)
	if ratio <= 1.0 {
		t.Fatalf("system/user FXU ratio = %v, want > 1 when paging (Figure 5)", ratio)
	}
	if d.Get(hpm.System, hpm.EvCycles) == 0 {
		t.Fatal("no system cycles charged")
	}
	if d.Get(hpm.System, hpm.EvDMAWrite) == 0 {
		t.Fatal("no page-in DMA traffic")
	}
}

func TestFirstTouchZeroFillIsCheap(t *testing.T) {
	// Touching fresh pages (no reuse, nothing evicted and revisited) costs
	// only the zero-fill path: modest system time, no disk DMA.
	b := isa.NewBuilder()
	b.Load(0, isa.Ref{Base: 0, Stride: int64(units.PageBytes)})
	c := New(Config{MemoryBytes: 1 << 30})
	c.Run(b.Build(2000, 0))
	d := userDelta(c)
	if got := d.Get(hpm.System, hpm.EvDMAWrite); got != 0 {
		t.Fatalf("zero-fill faults produced %d page-in DMA transfers", got)
	}
	if d.Get(hpm.System, hpm.EvCycles) == 0 {
		t.Fatal("zero-fill faults cost no system time at all")
	}
	// The zero-fill path is at least 10x cheaper than the page-in path.
	thrash := New(Config{MemoryBytes: 64 * 1024})
	bb := isa.NewBuilder()
	bb.Load(0, isa.Ref{Base: 0, Stride: int64(units.PageBytes), WorkingSet: 1 << 20})
	thrash.Run(bb.Build(2000, 0))
	dt := userDelta(thrash)
	if 10*d.Get(hpm.System, hpm.EvCycles) > dt.Get(hpm.System, hpm.EvCycles) {
		t.Fatalf("zero-fill (%d sys cycles) not much cheaper than thrash (%d)",
			d.Get(hpm.System, hpm.EvCycles), dt.Get(hpm.System, hpm.EvCycles))
	}
}

func TestNoPagingWhenMemoryFits(t *testing.T) {
	b := isa.NewBuilder()
	b.Load(0, isa.Ref{Base: 0, Stride: 8, WorkingSet: 64 * 1024})
	c := New(Config{MemoryBytes: units.NodeMemoryBytes})
	st := c.Run(b.Build(500000, 0))
	if st.PageFaults > 16+1 {
		t.Fatalf("page faults = %d for a resident working set", st.PageFaults)
	}
	d := userDelta(c)
	if got := hpm.SystemUserFXURatio(d); got > 0.5 {
		t.Fatalf("system/user ratio = %v for resident job", got)
	}
}

func TestAddDMA(t *testing.T) {
	c := New(Config{})
	c.AddDMA(10, 20)
	d := userDelta(c)
	if d.Get(hpm.User, hpm.EvDMARead) != 10 || d.Get(hpm.User, hpm.EvDMAWrite) != 20 {
		t.Fatal("AddDMA miscounted")
	}
}

func TestRunStatsDerived(t *testing.T) {
	st := RunStats{Instructions: 100, Cycles: 50, Flops: 200}
	if st.IPC() != 2.0 {
		t.Fatalf("IPC = %v", st.IPC())
	}
	if st.FlopsPerCycle() != 4.0 {
		t.Fatalf("FlopsPerCycle = %v", st.FlopsPerCycle())
	}
	var zero RunStats
	if zero.IPC() != 0 || zero.FlopsPerCycle() != 0 || zero.Mflops() != 0 {
		t.Fatal("zero RunStats rates not zero")
	}
}

func TestRunLimited(t *testing.T) {
	c := New(Config{})
	st := c.RunLimited(fmaKernel(1000000), 500)
	if st.Instructions != 500 {
		t.Fatalf("RunLimited ran %d instructions", st.Instructions)
	}
}

func TestRunLimitedExact(t *testing.T) {
	// RunLimited executes exactly n instructions and takes no more than n
	// from the stream, whether n is under, at or over one block.
	for _, n := range []uint64{1, 7, blockLen - 1, blockLen, blockLen + 1, 5 * blockLen, 999} {
		s := fmaKernel(250) // 1000 instructions
		st := New(Config{}).RunLimited(s, n)
		if st.Instructions != n {
			t.Fatalf("RunLimited(%d) ran %d instructions", n, st.Instructions)
		}
		if rest := isa.Count(s); rest != 1000-n {
			t.Fatalf("RunLimited(%d) left %d instructions in the stream, want %d", n, rest, 1000-n)
		}
	}
}

func TestRunLimitedShortStream(t *testing.T) {
	// A stream shorter than the limit stops the run early.
	c := New(Config{})
	s := isa.NewSliceStream([]isa.Instr{isa.MakeInstr(isa.OpFAdd)})
	if st := c.RunLimited(s, 100); st.Instructions != 1 {
		t.Fatalf("RunLimited over a 1-instruction stream ran %d, want 1", st.Instructions)
	}
	if st := c.RunLimited(s, 100); st.Instructions != 0 {
		t.Fatalf("RunLimited over an ended stream ran %d, want 0", st.Instructions)
	}
}

func TestRunLimitedResumesStream(t *testing.T) {
	// One CFD stream resumed over many RunLimited calls of uneven length,
	// across a phase boundary of its Cycle, runs exactly the instructions
	// the same stream yields in one pass: a CPU fed those instructions as
	// a slice in the same calls ends every call in the same state.
	const total = 300_000
	want := make([]isa.Instr, total)
	ref := kernels.CFD().New(1)
	for got := 0; got < total; {
		k := ref.Fill(want[got:])
		if k == 0 {
			t.Fatal("CFD stream ended")
		}
		got += k
	}

	a, b := New(Config{Seed: 3}), New(Config{Seed: 3})
	sa, sb := kernels.CFD().New(1), isa.NewSliceStream(want)
	src := rng.New(17)
	for left := uint64(total); left > 0; {
		n := min(left, uint64(src.IntRange(0, 5000)))
		ra, rb := a.RunLimited(sa, n), b.RunLimited(sb, n)
		if ra != rb || ra.Instructions != n {
			t.Fatalf("with %d left, RunLimited(%d): resumed %+v, one-pass %+v", left, n, ra, rb)
		}
		if a.Monitor().Snapshot() != b.Monitor().Snapshot() || a.Cycle() != b.Cycle() {
			t.Fatalf("with %d left: monitors diverged", left)
		}
		left -= n
	}
}

func TestRunLimitedAllocFree(t *testing.T) {
	// The zero-alloc contract at runtime: after warm-up, a RunLimited call
	// allocates nothing, with paging off (CFD) and on (BT on a 128 MB
	// node, the Table 4 BT49 rank).
	for _, tc := range []struct {
		name   string
		kernel kernels.Kernel
		mem    uint64
	}{
		{"cfd", kernels.CFD(), 0},
		{"bt@128MB", kernels.BT(), 128 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Seed: 1, MemoryBytes: tc.mem})
			s := tc.kernel.New(1)
			c.RunLimited(s, 200_000)
			if n := testing.AllocsPerRun(20, func() { c.RunLimited(s, 1000) }); n != 0 {
				t.Fatalf("RunLimited allocates %v times per call", n)
			}
		})
	}
}

func TestSuccessiveRunsAccumulateMonitor(t *testing.T) {
	c := New(Config{})
	c.Run(fmaKernel(100))
	s1 := c.Monitor().Snapshot()
	st2 := c.Run(fmaKernel(100))
	d := hpm.Sub(s1, c.Monitor().Snapshot())
	fpu := d.Get(hpm.User, hpm.EvFPU0Instr) + d.Get(hpm.User, hpm.EvFPU1Instr)
	if fpu != 400 {
		t.Fatalf("second-run delta FPU instr = %d, want 400 (4 fma x 100)", fpu)
	}
	if st2.Cycles == 0 {
		t.Fatal("second run reported zero cycles")
	}
}

func TestInvalidInstructionPanics(t *testing.T) {
	c := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid op")
		}
	}()
	var in isa.Instr // OpNop
	c.execute(&in)
}

func TestElapsedSeconds(t *testing.T) {
	c := New(Config{})
	c.Run(fmaKernel(66700)) // ~66.7k cycles
	s := c.Elapsed()
	if s <= 0 || s > 0.01 {
		t.Fatalf("Elapsed = %v", s)
	}
}

func BenchmarkExecuteFMA(b *testing.B) {
	c := New(Config{})
	loop := fmaKernel(uint64(b.N))
	b.ResetTimer()
	c.Run(loop)
}

func BenchmarkExecuteStreamingLoad(b *testing.B) {
	bd := isa.NewBuilder()
	bd.Load(0, isa.Ref{Base: 0, Stride: 8})
	c := New(Config{})
	loop := bd.Build(uint64(b.N), 0)
	b.ResetTimer()
	c.Run(loop)
}

func TestCounterConservationProperty(t *testing.T) {
	// For arbitrary generated instruction streams, the monitor's counts
	// must exactly match a ground-truth tally of what was executed:
	// FPU0+FPU1 instr == FP instructions, adds include fma adds, FXU
	// instr == memory + integer ops, ICU == branches + condreg, and
	// dcache reloads == dcache misses.
	ops := []isa.Op{
		isa.OpFAdd, isa.OpFMul, isa.OpFMA, isa.OpFMove,
		isa.OpLoad, isa.OpStore, isa.OpLoadQuad, isa.OpStoreQuad,
		isa.OpIntALU, isa.OpIntMulDiv, isa.OpBranch, isa.OpCondReg,
	}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%800) + 50
		rnd := seed
		next := func(m uint64) uint64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return (rnd >> 33) % m
		}
		var instrs []isa.Instr
		var fpTotal, adds, muls, fmas, fxu, icu, mem uint64
		addr := uint64(0x10000)
		for i := 0; i < n; i++ {
			op := ops[next(uint64(len(ops)))]
			in := isa.MakeInstr(op)
			in.PC = uint64(i%64) * 4
			in.Dst = uint8(next(30))
			in.SrcA = uint8(next(30))
			if op.IsMemory() {
				addr += 8 * next(64)
				in.Addr = addr
				mem++
			}
			switch op.Unit() {
			case isa.UnitFPU:
				fpTotal++
			case isa.UnitFXU:
				fxu++
			case isa.UnitICU:
				icu++
			}
			switch op {
			case isa.OpFAdd:
				adds++
			case isa.OpFMul:
				muls++
			case isa.OpFMA:
				adds++ // the fma's add lands in the add counter
				fmas++
			}
			instrs = append(instrs, in)
		}
		c := New(Config{Seed: seed})
		st := c.Run(isa.NewSliceStream(instrs))
		d := userDelta(c)
		g := func(ev hpm.Event) uint64 { return d.Get(hpm.User, ev) }

		if st.Instructions != uint64(n) || st.MemRefs != mem {
			return false
		}
		if g(hpm.EvFPU0Instr)+g(hpm.EvFPU1Instr) != fpTotal {
			return false
		}
		if g(hpm.EvFPU0Add)+g(hpm.EvFPU1Add) != adds {
			return false
		}
		if g(hpm.EvFPU0Mul)+g(hpm.EvFPU1Mul) != muls {
			return false
		}
		if g(hpm.EvFPU0FMA)+g(hpm.EvFPU1FMA) != fmas {
			return false
		}
		if g(hpm.EvFXU0Instr)+g(hpm.EvFXU1Instr) != fxu {
			return false
		}
		if g(hpm.EvICUType1)+g(hpm.EvICUType2) != icu {
			return false
		}
		if g(hpm.EvDCacheMiss) != g(hpm.EvDCacheReload) {
			return false
		}
		if g(hpm.EvDCacheMiss) > mem {
			return false
		}
		// Cycles must cover at least a 4-wide dispatch lower bound.
		return st.Cycles >= uint64(n)/4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesMonotoneInStreamLengthProperty(t *testing.T) {
	// Running a longer prefix of the same stream never takes fewer cycles.
	f := func(seed uint64) bool {
		k := fmaKernel(1 << 30)
		a := New(Config{Seed: seed})
		sa := a.RunLimited(k, 1000)
		b := New(Config{Seed: seed})
		kb := fmaKernel(1 << 30)
		sb := b.RunLimited(kb, 2000)
		return sb.Cycles >= sa.Cycles && sb.Flops == 2*sa.Flops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
