// Package kernels defines the synthetic computational kernels standing in
// for the 1996 NAS workload codes. Each kernel is an instruction-stream
// generator whose mix, dependency structure and memory access pattern are
// chosen so that running it through the power2 CPU model reproduces the
// counter signature the paper reports for the corresponding code class:
//
//   - CFD: the workload-average multi-block solver — moderate fma fraction
//     (~54% of flops), serial recurrences (tridiagonal line solves) that
//     limit instruction-level parallelism, flops/memref well below 1, cache
//     miss ratio ~1% and TLB ratio ~0.1% of memory instructions.
//   - MatMul: the paper's single-node anchor — a cache-blocked, unrolled
//     matrix multiply at ~240 Mflops with flops/memref ~3.
//   - BT: an NPB-BT-like solver: fma-rich, cache-friendlier loop nests,
//     ~44 Mflops/CPU with a low TLB miss ratio.
//   - Sequential: the paper's thought experiment — a single large-array
//     sweep with no reuse (cache miss every 32 real*8 elements, TLB miss
//     every 512).
//   - Paging: a page-striding sweep over a working set far beyond node
//     memory, the >64-node oversubscription pathology.
package kernels

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/units"
)

// Kernel describes one synthetic code.
type Kernel struct {
	// Name is the registry key.
	Name string
	// Description says which workload class the kernel stands in for.
	Description string
	// WorkingSetBytes is the per-node memory demand; the campaign layer
	// compares it against node memory to decide whether a job pages.
	WorkingSetBytes uint64
	// CommBytesPerFlop scales message-passing volume with computation; the
	// node layer converts it to switch traffic and DMA transfers.
	CommBytesPerFlop float64
	// New returns a fresh, effectively unbounded instruction stream.
	// Callers bound it with power2.CPU.RunLimited.
	New func(seed uint64) isa.Stream
}

// unbounded is the iteration count used for "infinite" loops.
const unbounded = uint64(1) << 62

// arena hands out non-overlapping base addresses for a kernel's arrays so
// different arrays never alias in the cache model.
type arena struct{ next uint64 }

func (a *arena) alloc(bytes uint64) uint64 {
	// Keep arrays page-aligned and separated by a guard page.
	base := (a.next + units.PageBytes - 1) &^ (units.PageBytes - 1)
	a.next = base + bytes + units.PageBytes
	return base
}

// CFD is the workload-average kernel: one grid point of an implicit
// multi-block solver per loop trip. The body couples an addressing
// integer multiply (FXU1, 5 cycles), neighbour loads, a serial floating
// recurrence (the line-solve dependency), spill/reload traffic from poor
// register reuse, and a pivot divide every third point (~3% of flops,
// matching the paper's divide share).
//
// The solver cycles through three code phases (x-, y- and z-sweeps) at
// distinct text addresses, each heavily unrolled, so the static code
// footprint exceeds the 32 KB I-cache — the source of the paper's small
// but non-zero I-cache refill rate.
func CFD() Kernel {
	const (
		unroll     = 128 // replicas per phase body (~16 KB of code each)
		phaseIters = 60  // body executions before switching phase
	)
	return Kernel{
		Name:             "cfd",
		Description:      "multi-block implicit CFD solver (workload average)",
		WorkingSetBytes:  48 << 20, // ~48 MB: grids + solution + coefficients
		CommBytesPerFlop: 0.08,     // nearest-neighbour halo exchange
		New: func(seed uint64) isa.Stream {
			var mem arena
			grid := mem.alloc(16 << 20)  // streamed solution array
			grid2 := mem.alloc(16 << 20) // streamed RHS array
			local := mem.alloc(64 << 10) // blocked neighbour window (resident)
			coeff := mem.alloc(24 << 10) // cache-resident coefficients
			out := mem.alloc(16 << 20)

			// Streamed arrays wrap at this working set — far beyond the
			// 256 KB cache, well within the arena allocations.
			const streamWS = 8 << 20

			// emitPoint generates one grid point's work. Replica u of the
			// unrolled body advances each array slot by u elements so the
			// unrolled loop sweeps exactly like the rolled one; passOff
			// carries the sweep position across phase switches so the
			// solver keeps streaming fresh memory instead of re-reading
			// the last phase's footprint.
			emitPoint := func(b *isa.Builder, u int, passOff int64) {
				uo := int64(u)
				stride := func(s int64) int64 { return s * unroll }
				ref := func(base uint64, s int64, ws uint64) isa.Ref {
					off := uo * s
					if ws == 0 { // streaming slot: bounded by streamWS
						ws = streamWS
						off += (passOff * s) % streamWS
					}
					return isa.Ref{Base: uint64(int64(base) + off), Stride: stride(s), WorkingSet: ws}
				}

				idx := b.GPR()
				b.IntMulDiv(idx, idx)
				b.IntALU(idx, idx)

				v0, v1, v2, v3 := b.FPR(), b.FPR(), b.FPR(), b.FPR()
				c0, c1 := b.FPR(), b.FPR()
				b.LoadQuad(v0, ref(grid, 16, 0))
				b.Load(v1, ref(grid2, 8, 0))
				b.Load(v2, ref(local, 8, 32<<10))
				b.Load(v3, ref(local, 8, 32<<10))
				b.Load(c0, ref(coeff, 8, 16<<10))
				b.Load(c1, ref(coeff, 8, 16<<10))

				// Chain A: the line-solve recurrence — serial through acc,
				// carried across points. It pins the critical path and
				// stays on FPU0.
				acc := b.FPR()
				b.FMA(acc, v0, c0, acc)
				b.FAdd(acc, acc, v2)
				b.FMul(acc, acc, c0)
				b.FAdd(acc, acc, v1)
				b.FMA(acc, v3, c1, acc)
				b.FAdd(acc, acc, v3)
				b.FMul(acc, acc, c1)
				b.FMove(acc, acc)

				// Chain B: independent flux terms — ready while FPU0 is
				// busy with the recurrence, so they spill to FPU1 (the
				// source of the 1.7 asymmetry).
				flux := b.FPR()
				b.FMA(flux, v1, c1, flux)
				b.FAdd(flux, flux, v2)
				b.FMul(flux, flux, c0)
				b.FAdd(flux, flux, v0)

				// Every third point performs the pivot divide of the
				// forward elimination (~3% of flops; the hardware counter
				// never reported it).
				if u%3 == 0 {
					b.FDiv(flux, flux, c0)
				}

				// Spill traffic: codes that do not exploit the POWER2
				// register file reload neighbour values and spill
				// temporaries — pure FXU work per flop, pushing
				// flops/memref toward the measured ~0.6.
				t0, t1, t2 := b.FPR(), b.FPR(), b.FPR()
				b.Load(t0, ref(local, 8, 32<<10))
				b.Load(t1, ref(local, 8, 32<<10))
				b.Load(t2, ref(coeff, 8, 16<<10))
				b.Load(t0, ref(grid, 8, 0))
				b.Load(t1, ref(local, 8, 32<<10))
				b.Store(t2, ref(local, 8, 32<<10))

				b.Store(acc, ref(out, 8, 0))
				b.Store(flux, ref(grid2, 8, 32<<10))

				b.IntALU(idx, idx)
				b.IntALU(idx, idx)
				b.CondReg()
				b.Branch()
			}

			pass := 0
			phase := func(basePC uint64) func() isa.Stream {
				return func() isa.Stream {
					passOff := int64(pass) * phaseIters * unroll
					pass++
					b := isa.NewBuilder()
					for u := 0; u < unroll; u++ {
						emitPoint(b, u, passOff)
					}
					return b.Build(phaseIters, basePC)
				}
			}
			// Three sweep directions at distinct text addresses: ~48 KB of
			// code against a 32 KB I-cache.
			return isa.NewCycle(phase(0x10000), phase(0x40000), phase(0x70000))
		},
	}
}

// MatMul is the blocked, unrolled single-node matrix multiply the paper
// uses as its achievable-peak anchor (~240 Mflops, flops/memref ~3,
// fma-dominated).
func MatMul() Kernel {
	return Kernel{
		Name:             "matmul",
		Description:      "cache-blocked unrolled matrix multiply (240 Mflops anchor)",
		WorkingSetBytes:  192 << 10, // fits the 256 KB cache
		CommBytesPerFlop: 0,
		New: func(seed uint64) isa.Stream {
			var mem arena
			ablk := mem.alloc(64 << 10)
			bblk := mem.alloc(64 << 10)

			b := isa.NewBuilder()
			// 4x2 register block: 8 independent fma chains over quad-loaded
			// operands, everything cache-resident.
			var accs [8]uint8
			for i := range accs {
				accs[i] = b.FPR()
			}
			x0, x1 := b.FPR(), b.FPR()
			y0, y1 := b.FPR(), b.FPR()
			b.LoadQuad(x0, isa.Ref{Base: ablk, Stride: 16, WorkingSet: 48 << 10})
			b.LoadQuad(x1, isa.Ref{Base: ablk, Stride: 16, WorkingSet: 48 << 10})
			b.LoadQuad(y0, isa.Ref{Base: bblk, Stride: 16, WorkingSet: 48 << 10})
			b.LoadQuad(y1, isa.Ref{Base: bblk, Stride: 16, WorkingSet: 48 << 10})
			b.FMA(accs[0], x0, y0, accs[0])
			b.FMA(accs[1], x0, y1, accs[1])
			b.FMA(accs[2], x1, y0, accs[2])
			b.FMA(accs[3], x1, y1, accs[3])
			b.FMA(accs[4], x0, y0, accs[4])
			b.FMA(accs[5], x0, y1, accs[5])
			b.FMA(accs[6], x1, y0, accs[6])
			b.FMA(accs[7], x1, y1, accs[7])
			b.IntALU(0, 0)
			b.Branch()
			return b.Build(unbounded, 0x30000)
		},
	}
}

// BT is an NPB-BT-class kernel: loop nests rearranged for cache reuse
// (the paper credits BT's low TLB ratio to exactly this), fma-rich, with
// enough independent chains to sustain ~44 Mflops.
func BT() Kernel {
	return Kernel{
		Name:             "bt",
		Description:      "NPB BT-like block-tridiagonal solver (49-CPU reference)",
		WorkingSetBytes:  24 << 20,
		CommBytesPerFlop: 0.04,
		New: func(seed uint64) isa.Stream {
			var mem arena
			u := mem.alloc(8 << 20)
			rhs := mem.alloc(8 << 20)
			lhs := mem.alloc(64 << 10) // blocked, cache-resident factor

			b := isa.NewBuilder()
			idx := b.GPR()
			b.IntALU(idx, idx)

			// The rearranged loop nests keep the sweeps inside a working
			// window the 512-entry TLB covers (paper: BT's low TLB ratio
			// comes from exactly this restructuring); one array still
			// streams.
			v0, v1, v2 := b.FPR(), b.FPR(), b.FPR()
			c0, c1 := b.FPR(), b.FPR()
			b.LoadQuad(v0, isa.Ref{Base: u, Stride: 16, WorkingSet: 128 << 10})
			b.LoadQuad(v1, isa.Ref{Base: rhs, Stride: 16})
			b.Load(v2, isa.Ref{Base: u, Stride: 8, WorkingSet: 128 << 10})
			b.Load(c0, isa.Ref{Base: lhs, Stride: 8, WorkingSet: 32 << 10})
			b.Load(c1, isa.Ref{Base: lhs, Stride: 8, WorkingSet: 32 << 10})

			// Two interleaved recurrences: twice the ILP of the workload
			// average, which is what buys BT its 2.5x rate.
			a0, a1 := b.FPR(), b.FPR()
			b.FMA(a0, v0, c0, a0)
			b.FMA(a1, v1, c1, a1)
			b.FMA(a0, v2, c1, a0)
			b.FMA(a1, v0, c0, a1)
			b.FAdd(a0, a0, v1)
			b.FMA(a1, v2, c0, a1)
			b.FMul(a0, a0, c1)
			b.FMA(a1, v1, c1, a1)

			b.Store(a0, isa.Ref{Base: rhs, Stride: 8, WorkingSet: 128 << 10})
			b.StoreQuad(a1, isa.Ref{Base: u, Stride: 16, WorkingSet: 128 << 10})
			b.IntALU(idx, idx)
			b.Branch()
			return b.Build(unbounded, 0x40000)
		},
	}
}

// Sequential is the paper's sequential-access reference: a single large
// array swept once with trivial computation and no reuse.
func Sequential() Kernel {
	return Kernel{
		Name:             "sequential",
		Description:      "single large-array sequential sweep, no cache reuse",
		WorkingSetBytes:  64 << 20,
		CommBytesPerFlop: 0,
		New: func(seed uint64) isa.Stream {
			var mem arena
			array := mem.alloc(64 << 20)
			b := isa.NewBuilder()
			v := b.FPR()
			acc := b.FPR()
			b.Load(v, isa.Ref{Base: array, Stride: 8})
			b.FAdd(acc, acc, v)
			b.Branch()
			return b.Build(unbounded, 0x50000)
		},
	}
}

// Comm is the message-passing service kernel: what a rank's CPU executes
// while it is communicating rather than computing — memcpy of message
// buffers in and out of cache-resident staging areas, protocol integer
// work, and zero floating-point operations. Jobs interleave their compute
// kernel with this one according to their communication duty cycle, which
// is how a ~45 Mflops crunch kernel presents as the paper's ~17-22 Mflops
// at the batch-job level while FXU Mips stay high.
func Comm() Kernel {
	return Kernel{
		Name:             "comm",
		Description:      "message-passing service: buffer copies and protocol work",
		WorkingSetBytes:  256 << 10,
		CommBytesPerFlop: 0,
		New: func(seed uint64) isa.Stream {
			var mem arena
			stage := mem.alloc(64 << 10)
			user := mem.alloc(64 << 10)
			b := isa.NewBuilder()
			v0, v1 := b.FPR(), b.FPR()
			g := b.GPR()
			// Copy loop: quad in, quad out, bounded buffers.
			b.LoadQuad(v0, isa.Ref{Base: user, Stride: 16, WorkingSet: 32 << 10})
			b.StoreQuad(v0, isa.Ref{Base: stage, Stride: 16, WorkingSet: 32 << 10})
			b.LoadQuad(v1, isa.Ref{Base: stage, Stride: 16, WorkingSet: 32 << 10})
			b.StoreQuad(v1, isa.Ref{Base: user, Stride: 16, WorkingSet: 32 << 10})
			// Protocol bookkeeping.
			b.IntALU(g, g)
			b.IntALU(g, g)
			b.CondReg()
			b.Branch()
			return b.Build(unbounded, 0x70000)
		},
	}
}

// Paging is the oversubscription pathology: page-striding references over
// a working set far beyond node memory, so on a memory-limited node nearly
// every page touch faults and the OS dominates the instruction counts.
func Paging() Kernel {
	return Kernel{
		Name:             "paging",
		Description:      ">64-node oversubscribed job: page-striding, thrashing sweep",
		WorkingSetBytes:  256 << 20, // 2x a 128 MB node
		CommBytesPerFlop: 0.02,
		New: func(seed uint64) isa.Stream {
			var mem arena
			huge := mem.alloc(256 << 20)
			b := isa.NewBuilder()
			v := b.FPR()
			acc := b.FPR()
			// One touch per page: the fastest way to demand pages.
			b.Load(v, isa.Ref{Base: huge, Stride: units.PageBytes, WorkingSet: 256 << 20})
			b.FMA(acc, acc, v, acc)
			b.FAdd(acc, acc, v)
			b.IntALU(0, 0)
			b.Branch()
			return b.Build(unbounded, 0x60000)
		},
	}
}

// All returns every kernel in a stable order.
func All() []Kernel {
	ks := []Kernel{CFD(), MatMul(), BT(), Sequential(), Paging(), Comm(), SP(), LU(), MG(), FT(), CG()}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	return ks
}

// ByName looks a kernel up; the second result reports whether it exists.
func ByName(name string) (Kernel, bool) {
	for _, k := range All() {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}
