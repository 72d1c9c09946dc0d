package isa

import "testing"

func TestOpMetadata(t *testing.T) {
	cases := []struct {
		op       Op
		unit     Unit
		flops    int
		mem      bool
		store    bool
		quad     bool
		multicyc bool
	}{
		{OpFAdd, UnitFPU, 1, false, false, false, false},
		{OpFMul, UnitFPU, 1, false, false, false, false},
		{OpFDiv, UnitFPU, 1, false, false, false, true},
		{OpFMA, UnitFPU, 2, false, false, false, false},
		{OpFSqrt, UnitFPU, 1, false, false, false, true},
		{OpFMove, UnitFPU, 0, false, false, false, false},
		{OpLoad, UnitFXU, 0, true, false, false, false},
		{OpStore, UnitFXU, 0, true, true, false, false},
		{OpLoadQuad, UnitFXU, 0, true, false, true, false},
		{OpStoreQuad, UnitFXU, 0, true, true, true, false},
		{OpIntALU, UnitFXU, 0, false, false, false, false},
		{OpIntMulDiv, UnitFXU, 0, false, false, false, false},
		{OpBranch, UnitICU, 0, false, false, false, false},
		{OpCondReg, UnitICU, 0, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.Unit() != c.unit {
			t.Errorf("%v.Unit() = %v, want %v", c.op, c.op.Unit(), c.unit)
		}
		if c.op.Flops() != c.flops {
			t.Errorf("%v.Flops() = %d, want %d", c.op, c.op.Flops(), c.flops)
		}
		if c.op.IsMemory() != c.mem {
			t.Errorf("%v.IsMemory() = %v", c.op, c.op.IsMemory())
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v.IsStore() = %v", c.op, c.op.IsStore())
		}
		if c.op.IsQuad() != c.quad {
			t.Errorf("%v.IsQuad() = %v", c.op, c.op.IsQuad())
		}
		if c.op.IsMulticycle() != c.multicyc {
			t.Errorf("%v.IsMulticycle() = %v", c.op, c.op.IsMulticycle())
		}
		if !c.op.Valid() {
			t.Errorf("%v.Valid() = false", c.op)
		}
	}
}

func TestOpLatencies(t *testing.T) {
	// Paper: 10-cycle divide and 15-cycle square root.
	if OpFDiv.Latency() != 10 {
		t.Fatalf("fdiv latency = %d, want 10", OpFDiv.Latency())
	}
	if OpFSqrt.Latency() != 15 {
		t.Fatalf("fsqrt latency = %d, want 15", OpFSqrt.Latency())
	}
}

func TestQuadMovesSixteenBytes(t *testing.T) {
	if OpLoadQuad.MemBytes() != 16 || OpStoreQuad.MemBytes() != 16 {
		t.Fatal("quad ops must move 16 bytes")
	}
	if OpLoad.MemBytes() != 8 || OpStore.MemBytes() != 8 {
		t.Fatal("scalar memory ops must move 8 bytes")
	}
}

func TestOnlyIntMulDivNeedsFXU1(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		want := op == OpIntMulDiv
		if op.NeedsFXU1() != want {
			t.Errorf("%v.NeedsFXU1() = %v, want %v", op, op.NeedsFXU1(), want)
		}
	}
}

func TestInvalidOp(t *testing.T) {
	bad := Op(200)
	if bad.Valid() {
		t.Fatal("Op(200).Valid() = true")
	}
	if bad.Unit() != UnitNone {
		t.Fatal("invalid op has a unit")
	}
	if bad.IsMemory() {
		t.Fatal("invalid op is memory")
	}
	if bad.String() == "" {
		t.Fatal("invalid op has empty string")
	}
	if OpNop.Valid() {
		t.Fatal("nop reported valid")
	}
}

func TestMakeInstrDefaults(t *testing.T) {
	in := MakeInstr(OpFMA)
	if in.Dst != NoReg || in.SrcA != NoReg || in.SrcB != NoReg || in.SrcC != NoReg {
		t.Fatalf("MakeInstr registers not NoReg: %+v", in)
	}
	if in.Op != OpFMA {
		t.Fatalf("Op = %v", in.Op)
	}
}

func TestInstrString(t *testing.T) {
	in := MakeInstr(OpLoad)
	in.Addr = 0x1000
	if got := in.String(); got != "load @0x1000" {
		t.Fatalf("String = %q", got)
	}
	if got := MakeInstr(OpFMA).String(); got != "fma" {
		t.Fatalf("String = %q", got)
	}
}

func TestSliceStream(t *testing.T) {
	instrs := []Instr{MakeInstr(OpFAdd), MakeInstr(OpFMul), MakeInstr(OpFMA)}
	s := NewSliceStream(instrs)
	buf := make([]Instr, 2)
	if n := s.Fill(buf); n != 2 || buf[0].Op != OpFAdd || buf[1].Op != OpFMul {
		t.Fatalf("first Fill = %d %v", n, buf)
	}
	if n := s.Fill(buf); n != 1 || buf[0].Op != OpFMA {
		t.Fatalf("second Fill = %d %v, want the last instruction", n, buf[:n])
	}
	if s.Fill(buf) != 0 {
		t.Fatal("stream did not end")
	}
}
