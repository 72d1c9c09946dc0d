// Package isa models the POWER2 instruction set at the granularity the
// hardware performance monitor observes it: every instruction carries an
// operation class (which decides the execution unit and the counters it
// ticks), the registers it reads and writes (which decide dependency-driven
// FPU0/FPU1 issue), and an effective address for storage references (which
// drives the cache and TLB models).
//
// This is not a functional emulator — no architectural state is computed —
// but it is a faithful *event* model: each simulated instruction produces
// exactly the monitor events a real one would.
package isa

import (
	"fmt"

	"repro/internal/units"
)

// Op is an instruction operation class.
type Op uint8

// Operation classes, grouped by the unit that executes them.
const (
	// OpNop is an empty slot; streams should not normally emit it.
	OpNop Op = iota

	// Floating-point unit operations (FPU0/FPU1).
	OpFAdd  // floating add/subtract: 1 flop
	OpFMul  // floating multiply: 1 flop
	OpFDiv  // floating divide: 1 flop, 10-cycle multicycle op
	OpFMA   // compound multiply-add: 2 flops
	OpFSqrt // square root: 1 flop, 15-cycle multicycle op
	OpFMove // register move/negate/round: 0 flops, still an FPU instruction

	// Fixed-point unit operations (FXU0/FXU1).
	OpLoad      // storage reference: load one word/doubleword
	OpStore     // storage reference: store one word/doubleword
	OpLoadQuad  // quad load (lfq): moves 16 bytes, counts as ONE instruction
	OpStoreQuad // quad store (stfq): moves 16 bytes, counts as ONE instruction
	OpIntALU    // integer arithmetic/logical
	OpIntMulDiv // integer multiply/divide for addressing (FXU1 only)

	// Instruction-decode unit operations.
	OpBranch  // branch (conditional or not)
	OpCondReg // condition-register logical

	opCount // sentinel
)

// Unit identifies the execution resource class an Op needs.
type Unit uint8

// Execution unit classes.
const (
	UnitNone Unit = iota
	UnitFPU       // either FPU0 or FPU1
	UnitFXU       // either FXU0 or FXU1
	UnitICU       // executed by the instruction decode unit itself
)

type opInfo struct {
	name      string
	unit      Unit
	flops     uint8 // flop count credited by the monitor
	memBytes  uint8 // bytes moved for storage references
	latency   uint8 // issue-to-result latency in cycles
	isStore   bool
	multicyc  bool // occupies its FPU for many cycles (div, sqrt)
	addrMulDv bool // requires FXU1 (integer mul/div for addressing)
}

var opTable = [opCount]opInfo{
	OpNop:       {name: "nop", unit: UnitNone, latency: 1},
	OpFAdd:      {name: "fadd", unit: UnitFPU, flops: 1, latency: 2},
	OpFMul:      {name: "fmul", unit: UnitFPU, flops: 1, latency: 2},
	OpFDiv:      {name: "fdiv", unit: UnitFPU, flops: 1, latency: units.FPDivideCycles, multicyc: true},
	OpFMA:       {name: "fma", unit: UnitFPU, flops: 2, latency: 2},
	OpFSqrt:     {name: "fsqrt", unit: UnitFPU, flops: 1, latency: units.FPSqrtCycles, multicyc: true},
	OpFMove:     {name: "fmove", unit: UnitFPU, flops: 0, latency: 1},
	OpLoad:      {name: "load", unit: UnitFXU, memBytes: 8, latency: 1},
	OpStore:     {name: "store", unit: UnitFXU, memBytes: 8, latency: 1, isStore: true},
	OpLoadQuad:  {name: "loadq", unit: UnitFXU, memBytes: 16, latency: 1},
	OpStoreQuad: {name: "storeq", unit: UnitFXU, memBytes: 16, latency: 1, isStore: true},
	OpIntALU:    {name: "intalu", unit: UnitFXU, latency: 1},
	OpIntMulDiv: {name: "intmuldiv", unit: UnitFXU, latency: 5, addrMulDv: true},
	OpBranch:    {name: "branch", unit: UnitICU, latency: 1},
	OpCondReg:   {name: "condreg", unit: UnitICU, latency: 1},
}

// String returns the mnemonic for the operation class.
func (o Op) String() string {
	if o >= opCount {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// Valid reports whether o is a defined operation class.
func (o Op) Valid() bool { return o > OpNop && o < opCount }

// Unit returns the execution resource class for the operation.
func (o Op) Unit() Unit {
	if o >= opCount {
		return UnitNone
	}
	return opTable[o].unit
}

// Flops returns the floating-point operations the monitor credits for one
// execution (2 for fma, which counts as an add and a multiply).
func (o Op) Flops() int { return int(opTable[o].flops) }

// IsMemory reports whether the operation is a storage reference.
func (o Op) IsMemory() bool {
	if o >= opCount {
		return false
	}
	return opTable[o].memBytes > 0
}

// MemBytes returns the bytes moved by a storage reference (0 otherwise).
func (o Op) MemBytes() int { return int(opTable[o].memBytes) }

// IsStore reports whether the operation writes storage.
func (o Op) IsStore() bool { return opTable[o].isStore }

// IsQuad reports whether the operation is a quad load/store. The HPM counts
// a quad as a single FXU instruction even though it moves two doublewords.
func (o Op) IsQuad() bool { return o == OpLoadQuad || o == OpStoreQuad }

// Latency returns the issue-to-result latency in cycles.
func (o Op) Latency() int { return int(opTable[o].latency) }

// IsMulticycle reports whether the operation monopolises its FPU for many
// cycles (divide, square root). The ICU redirects the floating instruction
// stream to the other FPU while such an operation drains.
func (o Op) IsMulticycle() bool { return opTable[o].multicyc }

// NeedsFXU1 reports whether the operation can only execute on FXU1
// (integer multiply/divide used for addressing).
func (o Op) NeedsFXU1() bool { return opTable[o].addrMulDv }

// NoReg marks an unused register operand.
const NoReg uint8 = 0xFF

// Instr is one dynamic instruction as seen by the monitor-level simulator.
type Instr struct {
	Op   Op
	Dst  uint8 // destination register, or NoReg
	SrcA uint8 // source registers, or NoReg
	SrcB uint8
	SrcC uint8  // third source (fma), or NoReg
	Addr uint64 // effective address for storage references
	PC   uint64 // instruction address (drives the I-cache model)
}

// MakeInstr builds an instruction with all register fields defaulted to
// NoReg; callers set the operands they use.
func MakeInstr(op Op) Instr {
	return Instr{Op: op, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg}
}

// String renders the instruction for debugging.
func (in Instr) String() string {
	if in.Op.IsMemory() {
		return fmt.Sprintf("%s @%#x", in.Op, in.Addr)
	}
	return in.Op.String()
}

// Stream produces a sequence of dynamic instructions a block at a time.
// Fill writes the stream's next instructions into buf, at most len(buf)
// of them, and returns how many it wrote; 0 means the stream has ended
// (or buf is empty). A stream may write fewer than len(buf) without
// having ended, and it resumes where the last call stopped, so filling
// in blocks of any length yields the same sequence.
type Stream interface {
	Fill(buf []Instr) int
}

// SliceStream replays a fixed slice of instructions once.
type SliceStream struct {
	instrs []Instr
	pos    int
}

// NewSliceStream returns a stream over the given instructions.
func NewSliceStream(instrs []Instr) *SliceStream {
	return &SliceStream{instrs: instrs}
}

// Fill implements Stream.
func (s *SliceStream) Fill(buf []Instr) int {
	n := copy(buf, s.instrs[s.pos:])
	s.pos += n
	return n
}

// Cycle produces an endless stream that runs each factory's stream to
// exhaustion in rotation, recreating it on every revisit. It models a
// solver iterating over distinct code phases (different text pages — the
// source of I-cache refill traffic) whose data sweeps restart each pass.
type Cycle struct {
	factories []func() Stream
	idx       int
	cur       Stream
}

// NewCycle builds the rotation; it panics without factories.
func NewCycle(factories ...func() Stream) *Cycle {
	if len(factories) == 0 {
		panic("isa: NewCycle with no factories")
	}
	return &Cycle{factories: factories}
}

// Fill implements Stream. A block ends at a phase boundary; the next
// phase's stream is created only when an instruction from it is asked
// for. A factory returning an empty stream is skipped; if every factory
// yields empty streams the cycle ends (avoids spinning).
func (c *Cycle) Fill(buf []Instr) int {
	for tries := 0; tries <= len(c.factories); tries++ {
		if c.cur == nil {
			c.cur = c.factories[c.idx%len(c.factories)]()
			c.idx++
		}
		if n := c.cur.Fill(buf); n > 0 {
			return n
		}
		c.cur = nil
	}
	return 0
}

// Count drains the stream and returns the number of instructions produced.
// It is a test helper; production code runs streams through the CPU model.
func Count(s Stream) uint64 {
	var buf [64]Instr
	var n uint64
	for {
		k := s.Fill(buf[:])
		if k == 0 {
			return n
		}
		n += uint64(k)
	}
}
