package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Mix summarises the static/dynamic character of an instruction stream
// prefix: the op histogram, unit shares, flop accounting, and the memory
// footprint — the quantities one checks when tuning a kernel against a
// workload's counter signature.
type Mix struct {
	Instructions uint64
	ByOp         map[Op]uint64
	Flops        uint64
	MemRefs      uint64
	MemBytes     uint64
	DistinctPCs  int
	CodeBytes    uint64 // span of distinct PCs (footprint proxy)
	MinAddr      uint64
	MaxAddr      uint64
}

// UnitShare reports the fraction of instructions bound for the unit.
func (m Mix) UnitShare(u Unit) float64 {
	if m.Instructions == 0 {
		return 0
	}
	var n uint64
	for op, c := range m.ByOp {
		if op.Unit() == u {
			n += c
		}
	}
	return float64(n) / float64(m.Instructions)
}

// FlopsPerMemRef reports the register-reuse measure of the stream itself.
func (m Mix) FlopsPerMemRef() float64 {
	if m.MemRefs == 0 {
		return 0
	}
	return float64(m.Flops) / float64(m.MemRefs)
}

// Describe consumes up to n instructions from the stream and summarises
// them. The stream is advanced; describe a fresh stream instance.
func Describe(s Stream, n uint64) Mix {
	m := Mix{ByOp: make(map[Op]uint64)}
	pcs := make(map[uint64]struct{})
	var buf [64]Instr
	first := true
	for m.Instructions < n {
		blk := buf[:min(uint64(len(buf)), n-m.Instructions)]
		k := s.Fill(blk)
		if k == 0 {
			break
		}
		for _, in := range blk[:k] {
			m.Instructions++
			m.ByOp[in.Op]++
			m.Flops += uint64(in.Op.Flops())
			pcs[in.PC] = struct{}{}
			if in.Op.IsMemory() {
				m.MemRefs++
				m.MemBytes += uint64(in.Op.MemBytes())
				if first || in.Addr < m.MinAddr {
					m.MinAddr = in.Addr
				}
				if first || in.Addr > m.MaxAddr {
					m.MaxAddr = in.Addr
				}
				first = false
			}
		}
	}
	m.DistinctPCs = len(pcs)
	var lo, hi uint64
	started := false
	for pc := range pcs {
		if !started || pc < lo {
			lo = pc
		}
		if !started || pc > hi {
			hi = pc
		}
		started = true
	}
	if started {
		m.CodeBytes = hi - lo + InstrBytes
	}
	return m
}

// String renders the mix as a compact report.
func (m Mix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instructions %d  flops %d  memrefs %d (%d bytes)  flops/memref %.2f\n",
		m.Instructions, m.Flops, m.MemRefs, m.MemBytes, m.FlopsPerMemRef())
	fmt.Fprintf(&b, "unit shares: FPU %.1f%%  FXU %.1f%%  ICU %.1f%%\n",
		100*m.UnitShare(UnitFPU), 100*m.UnitShare(UnitFXU), 100*m.UnitShare(UnitICU))
	fmt.Fprintf(&b, "code: %d distinct PCs spanning %d bytes\n", m.DistinctPCs, m.CodeBytes)
	type kv struct {
		op Op
		n  uint64
	}
	var ops []kv
	for op, n := range m.ByOp {
		ops = append(ops, kv{op, n})
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].n != ops[j].n {
			return ops[i].n > ops[j].n
		}
		return ops[i].op < ops[j].op
	})
	b.WriteString("op histogram:")
	for _, o := range ops {
		fmt.Fprintf(&b, " %s=%d", o.op, o.n)
	}
	b.WriteByte('\n')
	return b.String()
}
