// Package profile bridges the instruction-level CPU model and the
// nine-month campaign simulation. A Profile is the measured per-second
// counter signature of a kernel: every one of the 22 monitor events, in
// user and system mode, normalised by simulated wall time.
//
// Kernels are micro-simulated in full (every instruction through the
// dispatch, cache, TLB and paging models); the campaign then advances node
// counters at the measured rates over job lifetimes. This is the standard
// way to scale a microarchitecture simulator to months of machine time
// while keeping every rate self-consistent with the detailed model.
package profile

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/power2"
	"repro/internal/rng"
)

// Profile is a kernel's counter signature in events per second of node
// wall time, plus convenience aggregates.
type Profile struct {
	Name string
	// EventsPerSec holds per-mode, per-event rates.
	EventsPerSec [2][hpm.NumEvents]float64
	// Mflops is the counter-derived user-mode floating rate, for quick
	// reference and workload calibration.
	Mflops float64
	// TrueDivPerSec preserves the divide rate the broken hardware counter
	// missed.
	TrueDivPerSec float64
}

// Measure runs n instructions of the stream on a fresh CPU with the given
// configuration and returns the resulting rate signature.
func Measure(name string, stream isa.Stream, cfg power2.Config, n uint64) Profile {
	return MeasureRun(name, stream, cfg, n).Profile()
}

// MeasureKernel measures a kernel from the registry under the given CPU
// configuration.
func MeasureKernel(k kernels.Kernel, cfg power2.Config, n uint64) Profile {
	return MeasureRunKernel(k, cfg, n).Profile()
}

// Scale returns a copy of the profile with every rate multiplied by f —
// how per-job performance variability (compiler flags, problem sizes,
// tuning) is injected without re-simulating.
func (p Profile) Scale(f float64) Profile {
	out := p
	for m := 0; m < 2; m++ {
		for ev := range out.EventsPerSec[m] {
			out.EventsPerSec[m][ev] *= f
		}
	}
	out.Mflops *= f
	out.TrueDivPerSec *= f
	return out
}

// Blend returns a profile that is fracA of a plus (1-fracA) of b — the
// compute/communication duty-cycle composition of a job phase mix.
func Blend(a Profile, fracA float64, b Profile) Profile {
	if fracA < 0 || fracA > 1 {
		panic(fmt.Sprintf("profile: blend fraction %v out of [0,1]", fracA))
	}
	var out Profile
	out.Name = a.Name + "+" + b.Name
	for m := 0; m < 2; m++ {
		for ev := range out.EventsPerSec[m] {
			out.EventsPerSec[m][ev] = fracA*a.EventsPerSec[m][ev] + (1-fracA)*b.EventsPerSec[m][ev]
		}
	}
	out.Mflops = fracA*a.Mflops + (1-fracA)*b.Mflops
	out.TrueDivPerSec = fracA*a.TrueDivPerSec + (1-fracA)*b.TrueDivPerSec
	return out
}

// Plus returns the event-wise sum of two profiles — used to overlay a
// partially-active phase (e.g. comm-time memcpy at less than full duty)
// on a compute baseline.
func (p Profile) Plus(q Profile) Profile {
	out := p
	out.Name = p.Name + "+" + q.Name
	for m := 0; m < 2; m++ {
		for ev := range out.EventsPerSec[m] {
			out.EventsPerSec[m][ev] += q.EventsPerSec[m][ev]
		}
	}
	out.Mflops += q.Mflops
	out.TrueDivPerSec += q.TrueDivPerSec
	return out
}

// WithDMA returns a copy with the user-mode DMA read/write rates replaced
// (transfers per second). The campaign sets these from a job's message and
// disk traffic rather than the microsim (whose streams do no real I/O).
func (p Profile) WithDMA(readsPerSec, writesPerSec float64) Profile {
	out := p
	out.EventsPerSec[hpm.User][hpm.EvDMARead] = readsPerSec
	out.EventsPerSec[hpm.User][hpm.EvDMAWrite] = writesPerSec
	return out
}

// Apply advances a node's extended counters by seconds of this profile.
// It writes through the daemon's 64-bit accumulator rather than the 32-bit
// hardware registers: a 15-minute interval at SP2 rates overflows a 32-bit
// register many times, which is exactly why the real tools kept software
// totals. Fractional counts are rounded stochastically with rnd so rare
// events (I-cache misses, DMA on short phases) keep the right expectation;
// a nil rnd truncates.
//
// Every counter, zero rate or not, consumes exactly one rnd.Float64 draw,
// in mode-then-event order, so a job's stream position depends only on
// how many intervals it has been applied over. The round-up is added as
// 0 or 1 rather than branched on, and a zero count is added like any
// other (AddDirect of zero changes nothing).
//
// The receiver is a pointer purely to avoid copying the ~370-byte rate
// table once per job per tick on the campaign's hot path; Apply never
// mutates the profile.
func (p *Profile) Apply(acc *hpm.Accumulator, seconds float64, rnd *rng.Source) {
	if seconds < 0 {
		panic(fmt.Sprintf("profile: negative apply duration %v", seconds))
	}
	for mode := hpm.Mode(0); mode < 2; mode++ {
		for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
			x := p.EventsPerSec[mode][ev] * seconds
			n := uint64(x)
			if rnd != nil {
				n += b2u(rnd.Float64() < x-float64(n))
			}
			acc.AddDirect(mode, ev, n)
		}
	}
}

// b2u converts a comparison to 0 or 1; the compiler lowers it to a
// flag-set instruction, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Standard is the precomputed set of profiles the campaign uses.
type Standard struct {
	CFD        Profile
	BT         Profile
	MatMul     Profile
	Sequential Profile
	Comm       Profile
	Paging     Profile // measured on a memory-constrained node: system-heavy
}

// instrsPerMeasurement balances fidelity against start-up time; 400k
// instructions is far past cache/TLB warm-up for every kernel.
const instrsPerMeasurement = 400_000

// MeasureStandard builds the standard profile set with one micro-simulation
// in flight per available CPU. The paging profile is measured on a node
// with only 32 MB available to the job, against the kernel's 256 MB
// working set — the >64-node oversubscription regime.
func MeasureStandard(seed uint64) Standard {
	return MeasureStandardWorkers(seed, runtime.GOMAXPROCS(0))
}

// MeasureStandardWorkers builds the standard profile set with at most
// workers kernel micro-simulations in flight, consulting (and filling)
// the DefaultStore. Each measurement runs on its own freshly-seeded CPU
// and writes its own field of the result, so the profiles are
// bit-identical for every worker count — and, because a store hit returns
// exactly what the simulation would compute, for store hits and misses.
func MeasureStandardWorkers(seed uint64, workers int) Standard {
	return MeasureStandardStore(DefaultStore, seed, workers)
}

// MeasureStandardStore builds the standard profile set through the given
// store; a nil store bypasses memoization entirely (the reference path
// the determinism guard compares against).
func MeasureStandardStore(store *Store, seed uint64, workers int) Standard {
	base := power2.Config{Seed: seed + 1}
	mustKernel := func(name string) kernels.Kernel {
		k, ok := kernels.ByName(name)
		if !ok {
			panic("profile: missing kernel " + name)
		}
		return k
	}
	measure := func(k kernels.Kernel, cfg power2.Config, instrs uint64) Profile {
		if store == nil {
			return MeasureKernel(k, cfg, instrs)
		}
		return store.MeasureProfile(k, cfg, instrs)
	}
	pagingCfg := power2.Config{Seed: seed + 2, MemoryBytes: 32 << 20}
	var std Standard
	tasks := []struct {
		dst    *Profile
		kernel string
		cfg    power2.Config
		instrs uint64
	}{
		{&std.CFD, "cfd", base, instrsPerMeasurement},
		{&std.BT, "bt", base, instrsPerMeasurement},
		{&std.MatMul, "matmul", base, instrsPerMeasurement},
		{&std.Sequential, "sequential", base, instrsPerMeasurement},
		{&std.Comm, "comm", base, instrsPerMeasurement},
		{&std.Paging, "paging", pagingCfg, 700_000},
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			*t.dst = measure(mustKernel(t.kernel), t.cfg, t.instrs)
		}
		return std
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, t := range tasks {
		t := t
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			*t.dst = measure(mustKernel(t.kernel), t.cfg, t.instrs)
		}()
	}
	wg.Wait()
	return std
}

// Idle applies nothing: an unallocated or drained node. Kept as an explicit
// named helper so campaign code reads as prose.
func Idle(_ *hpm.Accumulator, _ float64) {}
