// Lightweight span tracing: a Stopwatch brackets one region of real work
// (a campaign stage, a store miss, a collector sweep) and records the
// elapsed wall time into a histogram or counter. Spans are values — no
// allocation, no context plumbing — and vanish entirely when telemetry
// is disabled: the clock is not even read.
//
// This file holds the only sanctioned wall-clock read in the simulator's
// dependency cone. The nondeterminism lint bars simulator packages from
// the clock because simulated results must be a pure function of the
// seed; telemetry reads it to measure the simulator's own execution and
// feeds the durations nowhere but its own histograms, so determinism of
// the simulated Result is untouched.

package telemetry

import "time"

// nowNanos reads the monotonic wall clock.
func nowNanos() int64 {
	//hpmlint:ignore nondeterminism telemetry measures the simulator's real execution; durations never feed simulated state
	return int64(time.Since(processStart))
}

// processStart anchors the monotonic readings; only differences are used.
//
//hpmlint:ignore nondeterminism process-start anchor for monotonic deltas; never observable in simulated results
var processStart = time.Now()

// Stopwatch measures one wall-clock interval. The zero value is a dead
// stopwatch (records nothing); StartWatch returns a live one unless
// telemetry is disabled, so a disabled run performs no clock reads.
type Stopwatch struct {
	start int64 // 0 = dead
}

// StartWatch starts timing. When telemetry is disabled the returned
// stopwatch is dead and every method is a no-op.
func StartWatch() Stopwatch {
	if disabled.Load() {
		return Stopwatch{}
	}
	return Stopwatch{start: nowNanos()}
}

// Record observes the elapsed nanoseconds into h.
//
//hpmlint:hotpath span close-out runs inside the engine's per-day loop
func (s Stopwatch) Record(h *Histogram) {
	if s.start == 0 {
		return
	}
	h.Observe(float64(nowNanos() - s.start))
}

// AddTo adds the elapsed nanoseconds to c (for busy-time accumulators).
//
//hpmlint:hotpath span close-out runs inside the engine's per-day loop
func (s Stopwatch) AddTo(c *Counter) {
	if s.start == 0 {
		return
	}
	if d := nowNanos() - s.start; d > 0 {
		c.Add(uint64(d))
	}
}
