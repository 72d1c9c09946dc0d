package isa

import (
	"math"
	"testing"
	"testing/quick"
)

// take fills from s in blocks of uneven length until it has n
// instructions or the stream ends.
func take(s Stream, n int) []Instr {
	var out []Instr
	var buf [7]Instr
	for len(out) < n {
		k := s.Fill(buf[:min(len(buf), n-len(out))])
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	return out
}

// drain collects every instruction of a finite stream.
func drain(s Stream) []Instr { return take(s, math.MaxInt) }

func TestLoopIterationAndCount(t *testing.T) {
	body := []Instr{MakeInstr(OpFAdd), MakeInstr(OpBranch)}
	l := NewLoop(body, nil, 5, 0x100)
	if l.BodyLen() != 2 || l.Iterations() != 5 || l.TotalInstrs() != 10 {
		t.Fatalf("geometry: body=%d iters=%d total=%d", l.BodyLen(), l.Iterations(), l.TotalInstrs())
	}
	if got := Count(l); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
}

func TestLoopPCsAreSequentialAndStable(t *testing.T) {
	body := []Instr{MakeInstr(OpFAdd), MakeInstr(OpFMul), MakeInstr(OpBranch)}
	l := NewLoop(body, nil, 2, 0x1000)
	var pcs []uint64
	for _, in := range drain(l) {
		pcs = append(pcs, in.PC)
	}
	want := []uint64{0x1000, 0x1004, 0x1008, 0x1000, 0x1004, 0x1008}
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("pcs = %#x, want %#x", pcs, want)
		}
	}
}

func TestLoopStridedAddresses(t *testing.T) {
	body := []Instr{MakeInstr(OpLoad)}
	refs := []Ref{{Base: 0x2000, Stride: 8}}
	l := NewLoop(body, refs, 4, 0)
	var addrs []uint64
	for _, in := range drain(l) {
		addrs = append(addrs, in.Addr)
	}
	want := []uint64{0x2000, 0x2008, 0x2010, 0x2018}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addrs = %#x, want %#x", addrs, want)
		}
	}
}

func TestLoopWorkingSetWraps(t *testing.T) {
	body := []Instr{MakeInstr(OpLoad)}
	refs := []Ref{{Base: 0x4000, Stride: 8, WorkingSet: 16}}
	l := NewLoop(body, refs, 4, 0)
	var addrs []uint64
	for _, in := range drain(l) {
		addrs = append(addrs, in.Addr)
	}
	want := []uint64{0x4000, 0x4008, 0x4000, 0x4008}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addrs = %#x, want %#x", addrs, want)
		}
	}
}

func TestLoopNegativeStrideWithWorkingSet(t *testing.T) {
	body := []Instr{MakeInstr(OpLoad)}
	refs := []Ref{{Base: 0x4000, Stride: -8, WorkingSet: 32}}
	l := NewLoop(body, refs, 5, 0)
	for _, in := range drain(l) {
		if in.Addr < 0x4000-32 || in.Addr > 0x4000+32 {
			t.Fatalf("negative-stride address escaped working set: %#x", in.Addr)
		}
	}
}

func TestLoopAddrFnOverrides(t *testing.T) {
	body := []Instr{MakeInstr(OpLoad)}
	refs := []Ref{{Base: 0x1, Stride: 1, AddrFn: func(iter uint64) uint64 { return 0x9000 + iter*4096 }}}
	l := NewLoop(body, refs, 3, 0)
	for i, in := range drain(l) {
		if in.Addr != 0x9000+uint64(i)*4096 {
			t.Fatalf("AddrFn ignored: %#x at iter %d", in.Addr, i)
		}
	}
}

func TestLoopNonMemorySlotsKeepTemplateAddr(t *testing.T) {
	add := MakeInstr(OpFAdd)
	add.Addr = 0xdead
	body := []Instr{add}
	refs := []Ref{{Base: 0x1000, Stride: 8}}
	l := NewLoop(body, refs, 1, 0)
	in := drain(l)[0]
	if in.Addr != 0xdead {
		t.Fatalf("non-memory instruction address rewritten: %#x", in.Addr)
	}
}

func TestNewLoopValidation(t *testing.T) {
	t.Run("mismatched refs", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		NewLoop([]Instr{MakeInstr(OpFAdd)}, []Ref{{}, {}}, 1, 0)
	})
	t.Run("empty body", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		NewLoop(nil, nil, 1, 0)
	})
}

func TestNewLoopCopiesInputs(t *testing.T) {
	body := []Instr{MakeInstr(OpLoad)}
	refs := []Ref{{Base: 0x1000}}
	l := NewLoop(body, refs, 2, 0)
	body[0].Op = OpStore
	refs[0].Base = 0x9999
	in := drain(l)[0]
	if in.Op != OpLoad || in.Addr != 0x1000 {
		t.Fatalf("loop aliases caller slices: %v @%#x", in.Op, in.Addr)
	}
}

func TestBuilderEmitsExpectedBody(t *testing.T) {
	b := NewBuilder()
	f0, f1, acc := b.FPR(), b.FPR(), b.FPR()
	g0 := b.GPR()
	b.Load(f0, Ref{Base: 0x1000, Stride: 8})
	b.LoadQuad(f1, Ref{Base: 0x2000, Stride: 16})
	b.FMA(acc, f0, f1, acc)
	b.FAdd(acc, acc, f0)
	b.FMul(acc, acc, f1)
	b.FDiv(acc, acc, f0)
	b.FSqrt(acc, acc)
	b.IntALU(g0, g0)
	b.IntMulDiv(g0, g0)
	b.Store(acc, Ref{Base: 0x3000, Stride: 8})
	b.StoreQuad(acc, Ref{Base: 0x4000, Stride: 16})
	b.CondReg()
	b.Branch()
	if b.Len() != 13 {
		t.Fatalf("Len = %d", b.Len())
	}
	l := b.Build(2, 0)
	var ops []Op
	for _, in := range drain(l) {
		ops = append(ops, in.Op)
	}
	if len(ops) != 26 {
		t.Fatalf("total = %d", len(ops))
	}
	wantFirst := []Op{OpLoad, OpLoadQuad, OpFMA, OpFAdd, OpFMul, OpFDiv, OpFSqrt, OpIntALU, OpIntMulDiv, OpStore, OpStoreQuad, OpCondReg, OpBranch}
	for i, w := range wantFirst {
		if ops[i] != w {
			t.Fatalf("ops[%d] = %v, want %v", i, ops[i], w)
		}
	}
}

func TestBuilderRegisterAllocationWraps(t *testing.T) {
	b := NewBuilder()
	seen := map[uint8]bool{}
	for i := 0; i < 64; i++ {
		r := b.FPR()
		if r >= 32 {
			t.Fatalf("FPR out of file: %d", r)
		}
		seen[r] = true
	}
	if len(seen) != 32 {
		t.Fatalf("FPR allocator covered %d registers, want 32", len(seen))
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder()
	b.FAdd(0, 1, 2)
	l1 := b.Build(1, 0)
	b.FMul(3, 4, 5)
	l2 := b.Build(1, 0)
	if Count(l1) != 1 {
		t.Fatal("first loop changed by later emits")
	}
	if Count(l2) != 2 {
		t.Fatal("second loop missing later emits")
	}
}

func TestRefAddrProperty(t *testing.T) {
	// With a working set, addresses always stay within [Base-WS, Base+WS).
	f := func(base uint32, stride int8, wsPow uint8, iter uint16) bool {
		ws := uint64(1) << (4 + wsPow%10)
		r := Ref{Base: uint64(base), Stride: int64(stride), WorkingSet: ws}
		l := NewLoop([]Instr{MakeInstr(OpLoad)}, []Ref{r}, uint64(iter)+1, 0)
		lo := int64(base) - int64(ws)
		hi := int64(base) + int64(ws)
		for _, in := range drain(l) {
			if a := int64(in.Addr); a < lo || a >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	b := NewBuilder()
	b.Load(0, Ref{Base: 0x1000, Stride: 8})
	b.FMA(1, 0, 2, 1)
	b.Store(1, Ref{Base: 0x2000, Stride: 8})
	b.Branch()
	m := Describe(b.Build(10, 0x100), 40)
	if m.Instructions != 40 {
		t.Fatalf("instructions = %d", m.Instructions)
	}
	if m.ByOp[OpFMA] != 10 || m.ByOp[OpLoad] != 10 || m.ByOp[OpBranch] != 10 {
		t.Fatalf("histogram = %v", m.ByOp)
	}
	if m.Flops != 20 {
		t.Fatalf("flops = %d", m.Flops)
	}
	if m.MemRefs != 20 || m.MemBytes != 160 {
		t.Fatalf("mem = %d refs %d bytes", m.MemRefs, m.MemBytes)
	}
	if m.FlopsPerMemRef() != 1.0 {
		t.Fatalf("flops/memref = %v", m.FlopsPerMemRef())
	}
	if m.DistinctPCs != 4 || m.CodeBytes != 16 {
		t.Fatalf("code = %d PCs %d bytes", m.DistinctPCs, m.CodeBytes)
	}
	// Address window covers both arrays.
	if m.MinAddr != 0x1000 || m.MaxAddr != 0x2000+9*8 {
		t.Fatalf("addr window = %#x..%#x", m.MinAddr, m.MaxAddr)
	}
	// Unit shares sum to 1 for streams without nops.
	sum := m.UnitShare(UnitFPU) + m.UnitShare(UnitFXU) + m.UnitShare(UnitICU)
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("unit shares sum = %v", sum)
	}
	if m.String() == "" {
		t.Fatal("empty report")
	}
}

func TestDescribeEmptyStream(t *testing.T) {
	m := Describe(NewSliceStream(nil), 100)
	if m.Instructions != 0 || m.FlopsPerMemRef() != 0 || m.UnitShare(UnitFPU) != 0 {
		t.Fatal("empty stream mix not zero")
	}
	if m.CodeBytes != 0 {
		t.Fatalf("code bytes = %d", m.CodeBytes)
	}
}

func TestCycleRotatesFactories(t *testing.T) {
	mk := func(op Op) func() Stream {
		return func() Stream {
			return NewSliceStream([]Instr{MakeInstr(op), MakeInstr(op)})
		}
	}
	c := NewCycle(mk(OpFAdd), mk(OpFMul))
	var ops []Op
	for _, in := range take(c, 8) {
		ops = append(ops, in.Op)
	}
	if len(ops) != 8 {
		t.Fatal("cycle ended")
	}
	want := []Op{OpFAdd, OpFAdd, OpFMul, OpFMul, OpFAdd, OpFAdd, OpFMul, OpFMul}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v", ops)
		}
	}
}

func TestCycleAllEmptyEnds(t *testing.T) {
	empty := func() Stream { return NewSliceStream(nil) }
	c := NewCycle(empty, empty)
	if c.Fill(make([]Instr, 4)) != 0 {
		t.Fatal("cycle of empties produced an instruction")
	}
}

func TestCyclePanicsWithoutFactories(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCycle()
}
