package isa

// Equivalence guard for block-filled loops. refLoop below is a
// line-for-line port of the per-instruction Loop this package shipped with:
// each memory slot's address recomputed from its Ref on every reference,
// iteration*Stride reduced modulo WorkingSet with a 64-bit multiply and
// remainder. Loop.Fill steps precomputed offsets instead and copies the
// body a stretch at a time. Over random bodies, refs and block lengths the
// two must produce the same instructions in the same order, including
// across calls that end mid-body.

import (
	"testing"

	"repro/internal/rng"
)

// refAddr is the reference address formula of a Ref at an iteration.
func refAddr(r *Ref, iter uint64) uint64 {
	if r.AddrFn != nil {
		return r.AddrFn(iter)
	}
	off := int64(iter) * r.Stride
	if r.WorkingSet != 0 {
		m := int64(r.WorkingSet)
		off %= m
		if off < 0 {
			off += m
		}
	}
	return uint64(int64(r.Base) + off)
}

type refLoop struct {
	body  []Instr
	refs  []Ref
	iters uint64
	iter  uint64
	pos   int
}

func (l *refLoop) next(in *Instr) bool {
	if l.iter >= l.iters {
		return false
	}
	*in = l.body[l.pos]
	if l.refs != nil && in.Op.IsMemory() {
		in.Addr = refAddr(&l.refs[l.pos], l.iter)
	}
	l.pos++
	if l.pos == len(l.body) {
		l.pos = 0
		l.iter++
	}
	return true
}

// randomRef draws an address generator from the shapes the kernels use
// and the edges of the offset arithmetic: negative strides, strides of at
// least the working set, working sets that are not powers of two, bases
// below the working set (negative offsets wrap below zero), and AddrFn.
func randomRef(src *rng.Source) Ref {
	wss := []uint64{0, 0, 16, 48 << 10, 1 << 20, 3000, 4096 * 7}
	r := Ref{Base: src.Uint64n(1 << 34), WorkingSet: wss[src.Intn(len(wss))]}
	if src.Intn(8) == 0 {
		r.Base = src.Uint64n(64)
	}
	switch src.Intn(6) {
	case 0:
		r.Stride = int64(src.IntRange(-4, 4)) * 8
	case 1:
		r.Stride = int64(src.IntRange(-2, 2)) * 4096
	case 2: // at least the working set, either sign
		r.Stride = int64(r.WorkingSet)*int64(src.IntRange(1, 5)) + int64(src.IntRange(0, 40))
		if src.Intn(2) == 0 {
			r.Stride = -r.Stride
		}
	case 3:
		r.Stride = int64(src.Uint64n(1<<21)) - 1<<20
	case 4:
		h := src.Uint64()
		r.AddrFn = func(iter uint64) uint64 { return (iter*0x9e3779b97f4a7c15 + h) >> 20 &^ 7 }
	default:
		r.Stride = 0
	}
	return r
}

func TestLoopFillEquivalence(t *testing.T) {
	ops := []Op{OpFAdd, OpFMA, OpFDiv, OpLoad, OpStore, OpLoadQuad, OpStoreQuad, OpIntALU, OpBranch}
	src := rng.New(0xf111)
	for trial := 0; trial < 400; trial++ {
		n := src.IntRange(1, 40)
		body := make([]Instr, n)
		refs := make([]Ref, n)
		for i := range body {
			body[i] = MakeInstr(ops[src.Intn(len(ops))])
			body[i].Addr = src.Uint64() // what non-memory slots must keep
			body[i].Dst = uint8(src.Intn(32))
			refs[i] = randomRef(src)
		}
		if trial%10 == 0 {
			refs = nil
		}
		iters := uint64(src.IntRange(0, 300))
		basePC := uint64(src.Intn(1<<20)) &^ 3

		l := NewLoop(body, refs, iters, basePC)
		ref := &refLoop{body: l.body, refs: refs, iters: iters}
		buf := make([]Instr, 200)
		var want Instr
		produced := uint64(0)
		for {
			blk := buf[:src.IntRange(1, len(buf))]
			k := l.Fill(blk)
			for i, got := range blk[:k] {
				if !ref.next(&want) {
					t.Fatalf("trial %d: Fill produced instruction %d past the end", trial, produced)
				}
				if got != want {
					t.Fatalf("trial %d, instruction %d (block offset %d): got %v pc %#x, want %v pc %#x",
						trial, produced, i, got, got.PC, want, want.PC)
				}
				produced++
			}
			if k == 0 {
				break
			}
		}
		if ref.next(&want) {
			t.Fatalf("trial %d: Fill ended after %d instructions, reference continues", trial, produced)
		}
		if produced != uint64(n)*iters {
			t.Fatalf("trial %d: %d instructions, want %d", trial, produced, uint64(n)*iters)
		}
	}
}
