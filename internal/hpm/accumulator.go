package hpm

// This file models the software half of the monitoring stack: the 32-bit
// hardware registers wrap every few tens of seconds at SP2 rates (the
// cycles counter alone wraps every ~64 s at 66.7 MHz), so Maki's tools ran
// a "multipass sampling mode" — the daemon re-read the hardware often
// enough that no register could wrap twice, and maintained extended
// software totals. Accumulator is that mechanism.

// Counts64 is the daemon's extended view of the 22 counters in both modes.
type Counts64 struct {
	Counts [numModes][NumEvents]uint64
}

// Get returns one extended counter.
func (c Counts64) Get(m Mode, ev Event) uint64 { return c.Counts[m][ev] }

// Sub64 computes after - before for extended counters. Extended counters
// do not wrap in any realistic campaign (2^64 events); the subtraction is
// plain. It panics if any counter ran backwards, which indicates sample
// misordering.
func Sub64(before, after Counts64) Delta {
	var d Delta
	for m := Mode(0); m < numModes; m++ {
		for e := Event(0); e < NumEvents; e++ {
			b, a := before.Counts[m][e], after.Counts[m][e]
			if a < b {
				panic("hpm: Sub64 with counters running backwards (misordered samples)")
			}
			d.Counts[m][e] = a - b
		}
	}
	return d
}

// Add accumulates a delta into the extended counters.
func (c *Counts64) Add(d Delta) {
	for m := Mode(0); m < numModes; m++ {
		for e := Event(0); e < NumEvents; e++ {
			c.Counts[m][e] += d.Counts[m][e]
		}
	}
}

// Accumulator pairs a hardware monitor with extended software totals.
// Sample must be called before any register can advance by 2^32 between
// calls — the owner (the node) samples after every burst of activity.
type Accumulator struct {
	mon    *Monitor
	last   Snapshot
	totals Counts64
}

// NewAccumulator wraps a monitor. The monitor's current contents become
// the baseline: totals start at zero.
func NewAccumulator(m *Monitor) *Accumulator {
	return &Accumulator{mon: m, last: m.Snapshot()}
}

// Monitor exposes the underlying hardware.
func (a *Accumulator) Monitor() *Monitor { return a.mon }

// Sample reads the hardware registers, wrap-corrects against the previous
// read, and folds the delta into the extended totals. When no register
// moved since the last read every delta is zero, so the fold is skipped:
// the campaign advances counters through AddDirect, which leaves the
// registers untouched, and would otherwise pay a 44-counter fold per node
// per tick for nothing.
func (a *Accumulator) Sample() {
	if a.mon.counts == a.last.Counts {
		return
	}
	cur := a.mon.Snapshot()
	a.totals.Add(Sub(a.last, cur))
	a.last = cur
}

// Totals returns the extended counters as of the last Sample.
func (a *Accumulator) Totals() Counts64 { return a.totals }

// AdvanceInto is the in-place form of
//
//	cur := a.Totals()
//	d.Add(Sub64(*prev, cur))
//	*prev = cur
//
// the per-node step of a cron sweep: it adds the extended totals' advance
// since *prev to *d and moves *prev up to the totals, without copying
// either counter table. Like Sub64 it panics if any counter ran backwards
// (misordered samples, or a reset the caller failed to rebase across).
func (a *Accumulator) AdvanceInto(prev *Counts64, d *Delta) {
	for m := range a.totals.Counts {
		cur, p, dm := &a.totals.Counts[m], &prev.Counts[m], &d.Counts[m]
		for e, c := range cur {
			if c < p[e] {
				panic("hpm: AdvanceInto with counters running backwards (misordered samples)")
			}
			dm[e] += c - p[e]
			p[e] = c
		}
	}
}

// Reset zeroes the extended totals and re-baselines against the current
// hardware state (job prologue on a dedicated node).
func (a *Accumulator) Reset() {
	a.totals = Counts64{}
	a.last = a.mon.Snapshot()
}

// AddDirect folds counts into the extended totals without touching the
// hardware registers. The campaign's profile extrapolation uses it for
// event volumes that exceed what a 32-bit register can express between
// samples.
func (a *Accumulator) AddDirect(m Mode, ev Event, n uint64) {
	if ev >= NumEvents {
		panic("hpm: AddDirect with invalid event")
	}
	// Respect the hardware divide-counter bug: what the registers never
	// counted, the daemon never saw.
	if a.mon != nil && a.mon.divBug && a.mon.divSlot[ev] {
		return
	}
	a.totals.Counts[m][ev] += n
}
