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
	"math"
	"runtime"
	"sync"

	"repro/internal/hpm"
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

// numCounters is the number of per-mode, per-event rates in a profile.
const numCounters = 2 * int(hpm.NumEvents)

// Step is one interval of a profile, resolved once for every node it is
// applied to: a job's nodes share the profile and the interval length,
// so rate·seconds, its whole part and its fraction are the same for all
// of them, and only the rounding draws differ.
type Step struct {
	n    int                      // live[:n] are the counters that can move
	live [numCounters]stepCounter // in mode-then-event order
}

// stepCounter is one counter's advance over a step: whole, plus one when
// the counter's draw falls below the round-up threshold.
type stepCounter struct {
	whole  uint64 // uint64(rate·seconds)
	thresh uint64 // roundUpThreshold of the fractional part
	mode   hpm.Mode
	ev     hpm.Event
	draw   uint8 // index of the counter's draw: mode·NumEvents + ev
}

// StepFor resolves seconds of the profile into s. A counter whose whole
// part and round-up threshold are both zero can never move, so it is
// left out; in the paper's job classes that is 24 to 34 of the 44.
// StepFor never mutates the profile; the pointer receiver saves copying
// the ~370-byte rate table once per job per tick.
func (p *Profile) StepFor(seconds float64, s *Step) {
	if seconds < 0 {
		panic(fmt.Sprintf("profile: negative apply duration %v", seconds))
	}
	s.n = 0
	draw := uint8(0)
	for mode := hpm.Mode(0); mode < 2; mode++ {
		for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
			x := float64(p.EventsPerSec[mode][ev] * seconds)
			n := uint64(x)
			if t := roundUpThreshold(x - float64(n)); n > 0 || t > 0 {
				s.live[s.n] = stepCounter{whole: n, thresh: t, mode: mode, ev: ev, draw: draw}
				s.n++
			}
			draw++
		}
	}
}

// ApplyTo advances acc by the step. Every counter, live or not, consumes
// exactly one rnd draw, in mode-then-event order, so a job's stream
// position depends only on how many node-intervals it has been applied
// over. A live counter adds its whole part plus one when its draw's top
// 53 bits k fall below its threshold, which is rnd.Float64() < fraction
// decided on integers. A nil rnd truncates.
func (s *Step) ApplyTo(acc *hpm.Accumulator, rnd *rng.Source) {
	var k [numCounters]uint64
	if rnd != nil {
		rnd.Fill(k[:])
	}
	for i := range s.live[:s.n] {
		c := &s.live[i]
		n := c.whole
		if rnd != nil {
			n += b2u(k[c.draw]>>11 < c.thresh)
		}
		acc.AddDirect(c.mode, c.ev, n)
	}
}

// roundUpThreshold returns the integer T with k/2^53 < f exactly when
// k < T, for every k in [0, 2^53): the draws rng.Float64 makes, k being
// the top 53 bits of a Uint64. Both sides scale by 2^53 without rounding,
// so the comparison is k < f·2^53, which for an integer k is k <
// ceil(f·2^53). A fraction that is not positive (or NaN) never rounds up,
// and one of at least 1 always does.
func roundUpThreshold(f float64) uint64 {
	switch {
	case !(f > 0):
		return 0
	case f >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(f * (1 << 53)))
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
// workers kernel micro-simulations in flight (fewer than one means
// GOMAXPROCS), consulting (and filling) the DefaultStore. Each
// measurement runs on its own freshly-seeded CPU and writes its own field
// of the result, so the profiles are bit-identical for every worker count
// — and, because a store hit returns exactly what the simulation would
// compute, for store hits and misses.
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
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, min(workers, len(tasks)))
	for _, t := range tasks {
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
