// Package faults is the chaos layer for the RS2HPM collection pipeline.
// The paper's nine-month campaign was not a clean record: nodes crashed
// and rebooted, the cron job driving the 15-minute RS2HPM sweep missed
// samples, daemon restarts zeroed the extended software totals, and the
// PBS epilogue's counter capture raced job termination. This package
// models those outages as *seeded, deterministic* events so a faulted
// campaign is exactly as reproducible as a clean one: every draw comes
// from an rng.Stream substream keyed by (campaign seed, day) or
// (campaign seed, job UID), the same discipline the workload generator
// uses, so a fault schedule depends only on the configuration and never
// on worker count or execution order.
//
// Substream namespaces: this package consumes stream IDs planStreamBase
// (3<<40) + day and jobStreamBase (4<<40) + job UID. The workload
// generator owns 1<<40 (day generation) and 2<<40 (per-job runtime); the
// 2^40 spacing keeps all four namespaces disjoint for any realistic
// campaign.
package faults

import "repro/internal/rng"

const (
	planStreamBase uint64 = 3 << 40
	jobStreamBase  uint64 = 4 << 40
)

// Config parameterises the fault mix. The zero value injects nothing; a
// campaign with a nil or zero Config is bit-identical to one without the
// fault layer at all. All rates are clamped to sane ranges when a plan is
// built, so arbitrary (fuzzed) values cannot panic or hang the planner.
type Config struct {
	// CrashProbPerNodeDay is the probability a node begins a crash+reboot
	// window on any given day. The crash zeroes the node's hardware
	// registers and extended totals (RAM state is gone) and the node is
	// unreachable for the reboot window.
	CrashProbPerNodeDay float64
	// MeanOutageTicks is the mean reboot-window length in sample periods
	// (geometric-ish via an exponential draw, minimum one tick).
	MeanOutageTicks float64
	// DropProbPerSample is the per-node-per-tick probability the cron
	// sweep misses the sample (the read never happens; counts carry to
	// the next successful sample).
	DropProbPerSample float64
	// DupProbPerSample is the per-node-per-tick probability the sweep
	// reads a node twice (overlapping cron runs). Duplicates must never
	// change any total — a property the test suite pins.
	DupProbPerSample float64
	// RestartProbPerNodeDay is the probability the node's RS2HPM daemon
	// restarts on a given day, zeroing the extended software totals while
	// the hardware keeps counting. Counts since the previous capture are
	// lost and the next read can only re-baseline.
	RestartProbPerNodeDay float64
	// EpilogueDelayProb is the per-job probability the PBS epilogue's
	// counter capture races job teardown and truncates the tail of the
	// job's counter record.
	EpilogueDelayProb float64
	// EpilogueDelayMeanSeconds is the mean truncation for delayed
	// epilogues (exponential draw).
	EpilogueDelayMeanSeconds float64
}

// Default returns a calibrated fault mix: a few node crashes a month
// across the cluster, percent-level cron misses, occasional daemon
// restarts — gappy the way a nine-month production record is gappy, while
// leaving the headline reductions recognisable.
func Default() Config {
	return Config{
		CrashProbPerNodeDay:      0.004, // ~0.6 crashes/day on 144 nodes
		MeanOutageTicks:          6,     // ~90 min median reboot+fsck
		DropProbPerSample:        0.01,
		DupProbPerSample:         0.003,
		RestartProbPerNodeDay:    0.01,
		EpilogueDelayProb:        0.05,
		EpilogueDelayMeanSeconds: 300,
	}
}

// Enabled reports whether any fault mode can fire.
func (c Config) Enabled() bool {
	return c.CrashProbPerNodeDay > 0 || c.DropProbPerSample > 0 ||
		c.DupProbPerSample > 0 || c.RestartProbPerNodeDay > 0 ||
		c.EpilogueDelayProb > 0
}

// clampProb forces p into [0, 1], mapping NaN to 0 — the planner's guard
// against adversarial configurations.
func clampProb(p float64) float64 {
	if !(p > 0) { // false for NaN and non-positive
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// sanitized returns the config with every rate clamped to a usable range.
func (c Config) sanitized() Config {
	c.CrashProbPerNodeDay = clampProb(c.CrashProbPerNodeDay)
	c.DropProbPerSample = clampProb(c.DropProbPerSample)
	c.DupProbPerSample = clampProb(c.DupProbPerSample)
	c.RestartProbPerNodeDay = clampProb(c.RestartProbPerNodeDay)
	c.EpilogueDelayProb = clampProb(c.EpilogueDelayProb)
	if !(c.MeanOutageTicks >= 1) { // false for NaN and sub-tick means
		c.MeanOutageTicks = 1
	}
	if !(c.EpilogueDelayMeanSeconds > 0) {
		c.EpilogueDelayMeanSeconds = 0
	}
	return c
}

// Fate is what happens to one scheduled node-sample.
type Fate uint8

// Sample fates, in the order the collection path decides them: an
// unreachable node wins over a cron miss, which wins over a re-baseline,
// which wins over a duplicate read.
const (
	FateCaptured   Fate = iota
	FateDown            // node unreachable (crash/reboot window)
	FateDropped         // cron missed the sweep
	FateRebase          // first read after a counter reset: baseline only, no delta
	FateDuplicated      // read twice; the second read is a zero-delta duplicate
)

// String names the fate.
func (f Fate) String() string {
	switch f {
	case FateCaptured:
		return "captured"
	case FateDown:
		return "down"
	case FateDropped:
		return "dropped"
	case FateRebase:
		return "rebase"
	case FateDuplicated:
		return "duplicated"
	}
	return "fate(?)"
}

// ResetKind distinguishes the two counter-reset events.
type ResetKind uint8

// Reset kinds.
const (
	NoReset      ResetKind = iota
	RebootReset            // node crash: hardware registers and totals zeroed
	RestartReset           // daemon restart: extended totals zeroed, hardware keeps counting
)

// Plan is one day's fault schedule: pure data, derived entirely from
// (Config, seed, day, geometry). Building the same plan twice — or on
// different workers, or out of day order — yields identical values.
type Plan struct {
	Day   int
	Nodes int
	Ticks int

	// drop and dup are per node-tick Bernoulli outcomes, indexed
	// node*Ticks+tick; nil when the corresponding rate is zero.
	drop []bool
	dup  []bool
	// downFrom/downTo give each node's unreachable tick window
	// [downFrom, downTo); downFrom == -1 means no window. resetTick is
	// the tick the node's counters reset (-1 none), with resetKind saying
	// how much state the reset destroys.
	downFrom  []int
	downTo    []int
	resetTick []int
	resetKind []ResetKind
}

// NewPlan builds the day's fault schedule. Draw order is fixed (node
// major, fault mode minor) so the plan is a pure function of its
// arguments; nodes or ticks outside the geometry are never scheduled.
func NewPlan(cfg Config, seed uint64, day, nodes, ticks int) Plan {
	p := Plan{Day: day, Nodes: nodes, Ticks: ticks}
	if nodes <= 0 || ticks <= 0 {
		return p
	}
	cfg = cfg.sanitized()
	p.downFrom = make([]int, nodes)
	p.downTo = make([]int, nodes)
	p.resetTick = make([]int, nodes)
	p.resetKind = make([]ResetKind, nodes)
	for i := 0; i < nodes; i++ {
		p.downFrom[i], p.downTo[i], p.resetTick[i] = -1, -1, -1
	}
	if !cfg.Enabled() {
		return p
	}
	rnd := rng.Stream(seed, planStreamBase+uint64(day))
	if cfg.DropProbPerSample > 0 {
		p.drop = make([]bool, nodes*ticks)
		for i := range p.drop {
			p.drop[i] = rnd.Bool(cfg.DropProbPerSample)
		}
	}
	if cfg.DupProbPerSample > 0 {
		p.dup = make([]bool, nodes*ticks)
		for i := range p.dup {
			p.dup[i] = rnd.Bool(cfg.DupProbPerSample)
		}
	}
	for n := 0; n < nodes; n++ {
		if cfg.CrashProbPerNodeDay > 0 && rnd.Bool(cfg.CrashProbPerNodeDay) {
			start := rnd.Intn(ticks)
			length := 1 + int(rnd.Exponential(cfg.MeanOutageTicks-1))
			if length < 1 || length > ticks {
				length = ticks // clamp pathological draws; window still clips below
			}
			end := start + length
			if end > ticks {
				end = ticks // outages do not cross the day boundary
			}
			p.downFrom[n], p.downTo[n] = start, end
			p.resetTick[n], p.resetKind[n] = start, RebootReset
		}
		// A daemon restart on a crashing node is subsumed by the reboot.
		if cfg.RestartProbPerNodeDay > 0 && p.resetKind[n] == NoReset &&
			rnd.Bool(cfg.RestartProbPerNodeDay) {
			p.resetTick[n], p.resetKind[n] = rnd.Intn(ticks), RestartReset
		}
	}
	return p
}

// Empty reports whether the plan schedules no fault at all.
func (p *Plan) Empty() bool {
	for _, f := range p.downFrom {
		if f >= 0 {
			return false
		}
	}
	for _, t := range p.resetTick {
		if t >= 0 {
			return false
		}
	}
	for _, b := range p.drop {
		if b {
			return false
		}
	}
	for _, b := range p.dup {
		if b {
			return false
		}
	}
	return true
}

// Down reports whether the node is unreachable at the tick.
func (p *Plan) Down(node, tick int) bool {
	if p.downFrom == nil || node < 0 || node >= p.Nodes {
		return false
	}
	return p.downFrom[node] >= 0 && tick >= p.downFrom[node] && tick < p.downTo[node]
}

// Dropped reports whether the cron sweep misses the node at the tick.
func (p *Plan) Dropped(node, tick int) bool {
	if p.drop == nil || node < 0 || node >= p.Nodes || tick < 0 || tick >= p.Ticks {
		return false
	}
	return p.drop[node*p.Ticks+tick]
}

// Duplicated reports whether the sweep reads the node twice at the tick.
func (p *Plan) Duplicated(node, tick int) bool {
	if p.dup == nil || node < 0 || node >= p.Nodes || tick < 0 || tick >= p.Ticks {
		return false
	}
	return p.dup[node*p.Ticks+tick]
}

// ResetAt returns the reset event scheduled for the node at the tick.
func (p *Plan) ResetAt(node, tick int) ResetKind {
	if p.resetTick == nil || node < 0 || node >= p.Nodes || p.resetTick[node] != tick {
		return NoReset
	}
	return p.resetKind[node]
}

// EpilogueDelay returns the epilogue-capture truncation, in seconds, for
// the job with the given campaign-unique UID — zero for the (usual) jobs
// whose epilogue wins the race. Pure in (cfg, seed, jobUID): the draw
// comes from the job's own fault substream, so it is independent of which
// day the job ends on and of every other job.
func (c Config) EpilogueDelay(seed, jobUID uint64) float64 {
	c = c.sanitized()
	if c.EpilogueDelayProb <= 0 || c.EpilogueDelayMeanSeconds <= 0 {
		return 0
	}
	rnd := rng.Stream(seed, jobStreamBase+jobUID)
	if !rnd.Bool(c.EpilogueDelayProb) {
		return 0
	}
	return rnd.Exponential(c.EpilogueDelayMeanSeconds)
}
