package isa

import "fmt"

// Ref describes how one body slot of a Loop generates effective addresses
// across iterations. The default (zero) Ref leaves the template address
// untouched, which is what non-memory instructions use.
type Ref struct {
	// Base is the first iteration's effective address.
	Base uint64
	// Stride is added to the address each iteration.
	Stride int64
	// WorkingSet, when non-zero, wraps the offset (iteration*Stride) modulo
	// this many bytes, modelling a kernel that sweeps a bounded array
	// repeatedly (e.g. a cache-blocked matrix multiply).
	WorkingSet uint64
	// AddrFn, when non-nil, overrides Base/Stride/WorkingSet entirely; it
	// receives the iteration number. Used for random/gather patterns.
	AddrFn func(iter uint64) uint64
}

// memRef is one memory slot of a Loop with its Ref in running form: the
// slot's offset from Base at the current iteration, stepped once per
// iteration. Without a working set the offset is iteration*Stride in
// wrapping 64-bit arithmetic. With one, it stays in [0, WorkingSet) and
// steps by Stride reduced modulo WorkingSet, which is the residue of
// iteration*Stride modulo WorkingSet for as long as that product fits in
// an int64: at the kernels' largest stride, one 4 KB page, for 2^51
// iterations.
type memRef struct {
	pos  int // body index of the slot
	base uint64
	off  uint64
	step uint64
	ws   uint64
	fn   func(iter uint64) uint64
}

func newMemRef(pos int, r Ref) memRef {
	m := memRef{pos: pos, base: r.Base, step: uint64(r.Stride), ws: r.WorkingSet, fn: r.AddrFn}
	if r.WorkingSet != 0 {
		ws := int64(r.WorkingSet)
		st := r.Stride % ws
		if st < 0 {
			st += ws
		}
		m.step = uint64(st)
	}
	return m
}

// addr is the slot's effective address at iteration iter, the current one.
func (m *memRef) addr(iter uint64) uint64 {
	if m.fn != nil {
		return m.fn(iter)
	}
	return m.base + m.off
}

// advance moves the offset to the next iteration.
func (m *memRef) advance() {
	m.off += m.step
	if m.ws != 0 && m.off >= m.ws {
		m.off -= m.ws
	}
}

// Loop is an instruction stream that executes a fixed body for a number of
// iterations. Instruction addresses (PCs) are assigned sequentially within
// the body so the I-cache model sees a tight floating-point loop: misses on
// the first trip, hits thereafter — exactly the behaviour behind the
// paper's 0.4% I-cache miss observation.
type Loop struct {
	body  []Instr
	mem   []memRef // the body's memory slots, in body order; nil without refs
	iters uint64

	iter uint64
	pos  int // next body index
	next int // index in mem of the first slot at or after pos
}

// InstrBytes is the encoded size of one instruction (4 bytes on POWER).
const InstrBytes = 4

// NewLoop builds a loop from a body template, per-slot address generators,
// and an iteration count. refs must either be nil (no memory references) or
// the same length as body; a memory instruction's address then comes from
// its slot's Ref, and every other instruction keeps its template address.
// basePC positions the body in the text segment.
func NewLoop(body []Instr, refs []Ref, iters uint64, basePC uint64) *Loop {
	if refs != nil && len(refs) != len(body) {
		panic(fmt.Sprintf("isa: NewLoop refs length %d != body length %d", len(refs), len(body)))
	}
	if len(body) == 0 {
		panic("isa: NewLoop with empty body")
	}
	b := make([]Instr, len(body))
	copy(b, body)
	for i := range b {
		b[i].PC = basePC + uint64(i)*InstrBytes
	}
	var mem []memRef
	if refs != nil {
		n := 0
		for _, in := range b {
			if in.Op.IsMemory() {
				n++
			}
		}
		mem = make([]memRef, 0, n)
		for i, in := range b {
			if in.Op.IsMemory() {
				mem = append(mem, newMemRef(i, refs[i]))
			}
		}
	}
	return &Loop{body: b, mem: mem, iters: iters}
}

// Fill implements Stream. It copies the body a stretch at a time and
// patches in the addresses of the memory slots the stretch covers.
func (l *Loop) Fill(buf []Instr) int {
	n := 0
	for n < len(buf) && l.iter < l.iters {
		k := copy(buf[n:], l.body[l.pos:])
		end := l.pos + k
		for ; l.next < len(l.mem) && l.mem[l.next].pos < end; l.next++ {
			m := &l.mem[l.next]
			buf[n+m.pos-l.pos].Addr = m.addr(l.iter)
		}
		n += k
		l.pos = end
		if l.pos == len(l.body) {
			l.pos, l.next = 0, 0
			l.iter++
			for i := range l.mem {
				l.mem[i].advance()
			}
		}
	}
	return n
}

// Builder assembles a loop body with a small register allocator, keeping
// kernel construction readable. Floating registers and fixed registers are
// drawn from separate POWER2 files (32 FPRs, 32 GPRs).
type Builder struct {
	body    []Instr
	refs    []Ref
	nextFPR uint8
	nextGPR uint8
}

// NewBuilder returns an empty loop-body builder.
func NewBuilder() *Builder { return &Builder{} }

// FPR allocates the next floating-point register, wrapping at 32.
func (b *Builder) FPR() uint8 {
	r := b.nextFPR % 32
	b.nextFPR++
	return r
}

// GPR allocates the next general-purpose register, wrapping at 32.
func (b *Builder) GPR() uint8 {
	r := b.nextGPR % 32
	b.nextGPR++
	return r
}

// emit appends an instruction with its address generator.
func (b *Builder) emit(in Instr, ref Ref) {
	b.body = append(b.body, in)
	b.refs = append(b.refs, ref)
}

// Load emits a doubleword load into dst with the given address pattern.
func (b *Builder) Load(dst uint8, ref Ref) {
	in := MakeInstr(OpLoad)
	in.Dst = dst
	b.emit(in, ref)
}

// LoadQuad emits a quad load (two doublewords, one instruction) into
// dst/dst+1 with the given address pattern.
func (b *Builder) LoadQuad(dst uint8, ref Ref) {
	in := MakeInstr(OpLoadQuad)
	in.Dst = dst
	b.emit(in, ref)
}

// Store emits a doubleword store of src with the given address pattern.
func (b *Builder) Store(src uint8, ref Ref) {
	in := MakeInstr(OpStore)
	in.SrcA = src
	b.emit(in, ref)
}

// StoreQuad emits a quad store of src with the given address pattern.
func (b *Builder) StoreQuad(src uint8, ref Ref) {
	in := MakeInstr(OpStoreQuad)
	in.SrcA = src
	b.emit(in, ref)
}

// FAdd emits dst = a + b.
func (b *Builder) FAdd(dst, a, bb uint8) {
	in := MakeInstr(OpFAdd)
	in.Dst, in.SrcA, in.SrcB = dst, a, bb
	b.emit(in, Ref{})
}

// FMul emits dst = a * b.
func (b *Builder) FMul(dst, a, bb uint8) {
	in := MakeInstr(OpFMul)
	in.Dst, in.SrcA, in.SrcB = dst, a, bb
	b.emit(in, Ref{})
}

// FMA emits dst = a*b + c (dst may equal c for accumulation).
func (b *Builder) FMA(dst, a, bb, c uint8) {
	in := MakeInstr(OpFMA)
	in.Dst, in.SrcA, in.SrcB, in.SrcC = dst, a, bb, c
	b.emit(in, Ref{})
}

// FMove emits a floating register move/negate/round (an FPU instruction
// that produces no flops).
func (b *Builder) FMove(dst, a uint8) {
	in := MakeInstr(OpFMove)
	in.Dst, in.SrcA = dst, a
	b.emit(in, Ref{})
}

// FDiv emits dst = a / b (10-cycle multicycle operation).
func (b *Builder) FDiv(dst, a, bb uint8) {
	in := MakeInstr(OpFDiv)
	in.Dst, in.SrcA, in.SrcB = dst, a, bb
	b.emit(in, Ref{})
}

// IntALU emits a fixed-point arithmetic/logical instruction.
func (b *Builder) IntALU(dst, a uint8) {
	in := MakeInstr(OpIntALU)
	in.Dst, in.SrcA = dst, a
	b.emit(in, Ref{})
}

// IntMulDiv emits an addressing multiply/divide (FXU1 only).
func (b *Builder) IntMulDiv(dst, a uint8) {
	in := MakeInstr(OpIntMulDiv)
	in.Dst, in.SrcA = dst, a
	b.emit(in, Ref{})
}

// Branch emits the loop-closing (or any) branch.
func (b *Builder) Branch() { b.emit(MakeInstr(OpBranch), Ref{}) }

// CondReg emits a condition-register logical instruction.
func (b *Builder) CondReg() { b.emit(MakeInstr(OpCondReg), Ref{}) }

// Build produces the Loop. The builder can keep being used afterwards; the
// loop owns copies.
func (b *Builder) Build(iters uint64, basePC uint64) *Loop {
	return NewLoop(b.body, b.refs, iters, basePC)
}
