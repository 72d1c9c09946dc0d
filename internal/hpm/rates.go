package hpm

// This file reduces counter deltas to the rate quantities the paper's
// tables report, using the paper's own accounting conventions:
//
//   - An fma counts as an add and a multiply for flop purposes; the
//     hardware puts the fma's add into the fp_add counter and the fma
//     itself into the fp_muladd counter, so Mflops-All is the sum of the
//     add, div, mul and fma rows (paper §5, Table 3).
//   - Mips is the total instruction rate: FPU + FXU + ICU instructions
//     (Table 2's 45.7 = Table 3's 14.8 + 27.6 + 3.3).
//   - Mops replaces the FPU instruction count with the flop count:
//     Mops = Mflops-All + FXU Mips + ICU Mips (48.3 = 17.4 + 27.6 + 3.3).
//   - Memory instructions are approximated by FXU0+FXU1, which the paper
//     notes is a lower-bound-quality estimate (quad load/store counts as
//     one instruction).

// Rates are per-node rates in millions per second, the unit of every table.
type Rates struct {
	Seconds float64 // measurement interval

	// Floating-point operation rates (Table 3, OPS section).
	MflopsAll float64
	MflopsAdd float64 // includes the add half of each fma
	MflopsDiv float64 // zero on real hardware (counter bug)
	MflopsMul float64
	MflopsFMA float64 // the multiply half of each fma

	// Instruction rates (Table 3, INST section).
	MipsFPU  float64
	MipsFPU0 float64
	MipsFPU1 float64
	MipsFXU  float64
	MipsFXU0 float64
	MipsFXU1 float64
	MipsICU  float64

	// Aggregates (Table 2).
	Mips float64
	Mops float64

	// Cache section (millions of events per second).
	DCacheMissM float64
	TLBMissM    float64
	ICacheMissM float64

	// I/O section (millions of transfers per second).
	DMAReadM  float64
	DMAWriteM float64
}

func mrate(count uint64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(count) / seconds / 1e6
}

// UserRates reduces the user-mode half of a delta over an interval.
func UserRates(d Delta, seconds float64) Rates { return rates(d, User, seconds) }

// SystemRates reduces the system-mode half of a delta over an interval.
func SystemRates(d Delta, seconds float64) Rates { return rates(d, System, seconds) }

func rates(d Delta, m Mode, seconds float64) Rates {
	g := func(ev Event) float64 { return mrate(d.Get(m, ev), seconds) }

	r := Rates{Seconds: seconds}
	r.MflopsAdd = g(EvFPU0Add) + g(EvFPU1Add)
	r.MflopsDiv = g(EvFPU0Div) + g(EvFPU1Div)
	r.MflopsMul = g(EvFPU0Mul) + g(EvFPU1Mul)
	r.MflopsFMA = g(EvFPU0FMA) + g(EvFPU1FMA)
	r.MflopsAll = r.MflopsAdd + r.MflopsDiv + r.MflopsMul + r.MflopsFMA

	r.MipsFPU0 = g(EvFPU0Instr)
	r.MipsFPU1 = g(EvFPU1Instr)
	r.MipsFPU = r.MipsFPU0 + r.MipsFPU1
	r.MipsFXU0 = g(EvFXU0Instr)
	r.MipsFXU1 = g(EvFXU1Instr)
	r.MipsFXU = r.MipsFXU0 + r.MipsFXU1
	r.MipsICU = g(EvICUType1) + g(EvICUType2)

	r.Mips = r.MipsFPU + r.MipsFXU + r.MipsICU
	r.Mops = r.MflopsAll + r.MipsFXU + r.MipsICU

	r.DCacheMissM = g(EvDCacheMiss)
	r.TLBMissM = g(EvTLBMiss)
	r.ICacheMissM = g(EvICacheReload)
	r.DMAReadM = g(EvDMARead)
	r.DMAWriteM = g(EvDMAWrite)
	return r
}

// FMAFraction reports the share of all floating-point operations produced
// by fma instructions (its add and its multiply both count), the paper's
// "~54%" statistic.
func (r Rates) FMAFraction() float64 {
	if r.MflopsAll == 0 {
		return 0
	}
	return 2 * r.MflopsFMA / r.MflopsAll
}

// FPUAsymmetry reports the FPU0/FPU1 instruction ratio (paper: ~1.7).
func (r Rates) FPUAsymmetry() float64 {
	if r.MipsFPU1 == 0 {
		return 0
	}
	return r.MipsFPU0 / r.MipsFPU1
}

// MemoryMips approximates the memory-instruction issue rate by FXU0+FXU1,
// as the paper does.
func (r Rates) MemoryMips() float64 { return r.MipsFXU }

// FlopsPerMemRef reports floating-point operations per memory instruction,
// the register-reuse measure (paper: 0.53 for the workload, 3.0 for the
// blocked matrix multiply).
func (r Rates) FlopsPerMemRef() float64 {
	if r.MipsFXU == 0 {
		return 0
	}
	return r.MflopsAll / r.MipsFXU
}

// CacheMissRatio reports D-cache misses per memory instruction (a lower
// bound, since FXU counts exceed pure memory instructions; paper: ~1.0%).
func (r Rates) CacheMissRatio() float64 {
	if r.MipsFXU == 0 {
		return 0
	}
	return r.DCacheMissM / r.MipsFXU
}

// TLBMissRatio reports TLB misses per memory instruction (paper: ~0.1%).
func (r Rates) TLBMissRatio() float64 {
	if r.MipsFXU == 0 {
		return 0
	}
	return r.TLBMissM / r.MipsFXU
}

// BranchFraction estimates the share of all instructions that are branches,
// approximating branches by the ICU instruction count (paper: ~11% via the
// DO-loop-closing-branch interpretation). The ICU rate used here is ICU
// type I + II; the paper's 3.3/29.7-ish arithmetic used total instructions
// from a simple test problem, so treat this as the same rough measure.
func (r Rates) BranchFraction() float64 {
	if r.Mips == 0 {
		return 0
	}
	return r.MipsICU / r.Mips
}

// SystemUserFXURatio reports system-mode FXU instructions over user-mode
// FXU instructions for a delta — Figure 5's x-axis. A ratio above 1 marks
// a paging node.
func SystemUserFXURatio(d Delta) float64 {
	user := d.Get(User, EvFXU0Instr) + d.Get(User, EvFXU1Instr)
	sys := d.Get(System, EvFXU0Instr) + d.Get(System, EvFXU1Instr)
	if user == 0 {
		if sys == 0 {
			return 0
		}
		return float64(sys) // effectively infinite; callers clamp for plotting
	}
	return float64(sys) / float64(user)
}

// DelayPerMemRef estimates stall cycles per memory instruction from the
// miss rates and the fixed penalties, as the paper does (~0.12 cycles):
// (cache misses * 8 + TLB misses * 45) / memory instructions.
func (r Rates) DelayPerMemRef(cacheMissPenalty, tlbMissPenalty float64) float64 {
	if r.MipsFXU == 0 {
		return 0
	}
	return (float64(r.DCacheMissM*cacheMissPenalty) + float64(r.TLBMissM*tlbMissPenalty)) / r.MipsFXU
}
