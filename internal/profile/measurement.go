package profile

// A Measurement is the raw outcome of micro-simulating one kernel: the
// architectural run summary, the full counter delta, the simulated wall
// time, and the divides the broken hardware counter swallowed. It is the
// unit the profile store memoizes — callers that want rates derive a
// Profile from it, callers that want counter-level detail (cmd/calibrate,
// the NPB table) read the delta directly, and both reconstructions are
// bit-for-bit the computation they would have performed on a fresh
// micro-simulation.

import (
	"fmt"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/power2"
)

// Measurement is one kernel micro-simulation, raw.
type Measurement struct {
	// Kernel, Config and Instrs identify what was measured; together they
	// are the store's cache key, and they fully determine every other
	// field (the simulator is deterministic in them).
	Kernel string
	Config power2.Resolved
	Instrs uint64

	Stats   power2.RunStats
	Delta   hpm.Delta // counters from a cold monitor, both modes
	Seconds float64   // simulated wall time at the SP2 clock
	// TrueDivides preserves, per mode, the divide count the hardware
	// monitor's bug hid from the registers.
	TrueDivides [2]uint64
}

// Profile derives the per-second rate signature. It reads only the
// measurement, so a cached measurement yields a bit-identical Profile.
func (m Measurement) Profile() Profile {
	var p Profile
	p.Name = m.Kernel
	for mode := hpm.Mode(0); mode < 2; mode++ {
		for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
			p.EventsPerSec[mode][ev] = float64(m.Delta.Get(mode, ev)) / m.Seconds
		}
	}
	p.Mflops = hpm.UserRates(m.Delta, m.Seconds).MflopsAll
	p.TrueDivPerSec = float64(m.TrueDivides[hpm.User]) / m.Seconds
	return p
}

// MeasureRun micro-simulates n instructions of stream on a fresh CPU and
// returns the raw measurement. The stream must be the one the (name, cfg)
// pair canonically denotes — for registry kernels, k.New(cfg.Seed) — or
// the measurement must not be stored (see Store).
func MeasureRun(name string, stream isa.Stream, cfg power2.Config, n uint64) Measurement {
	r := cfg.Resolve()
	cpu := power2.NewResolved(r)
	st := cpu.RunLimited(stream, n)
	elapsed := cpu.Elapsed()
	if elapsed <= 0 {
		panic(fmt.Sprintf("profile: kernel %q produced no cycles", name))
	}
	return Measurement{
		Kernel:  name,
		Config:  r,
		Instrs:  n,
		Stats:   st,
		Delta:   hpm.Sub(hpm.Snapshot{}, cpu.Monitor().Snapshot()),
		Seconds: elapsed,
		TrueDivides: [2]uint64{
			cpu.Monitor().TrueDivides(hpm.User),
			cpu.Monitor().TrueDivides(hpm.System),
		},
	}
}

// MeasureRunKernel measures a registry kernel, instantiating its stream
// from the configuration seed (the canonical stream for the cache key).
func MeasureRunKernel(k kernels.Kernel, cfg power2.Config, n uint64) Measurement {
	return MeasureRun(k.Name, k.New(cfg.Seed), cfg, n)
}
