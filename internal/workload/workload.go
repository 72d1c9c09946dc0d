// Package workload models the NAS SP2 user population over the paper's
// nine-month measurement window (July 1996 - March 1997): a stochastic
// stream of batch jobs with the published marginals —
//
//   - node counts peaked at 16 (then 32 and 8), with almost no demand
//     beyond 64 nodes (Figure 2);
//   - a job-class mix dominated by moderately-tuned multi-block CFD, with
//     a tail of well-tuned codes (the 40 Mflops/node Navier-Stokes run of
//     Cui and Street), debug/development runs, NPB-style benchmarks, and
//     — for >64-node jobs — memory-oversubscribed codes that page
//     (Figures 3 and 5);
//   - daily load demand averaging ~64% utilisation with heavy
//     day-to-day variability and no trend over time (Figure 1);
//   - per-job performance spread matching Figure 4's 320 +/- 200 Mflops
//     for 16-node jobs.
//
// The campaign is a staged engine:
//
//	generate  (Generator, generate.go)  (Config, day) -> DayPlan, pure
//	simulate  (engine.go)               advance job runs + node counters
//	reduce    (Reducer, reduce.go)      fold per-day deltas into a Result
//
// Jobs run under the pbs scheduler on dedicated nodes; while a job runs,
// its nodes' hardware counters advance at the rates micro-measured for its
// class (see internal/profile), and the campaign reduces the counter
// stream to per-day cluster deltas — the same reduction the 15-minute
// RS2HPM cron sampling performed. Every random draw comes from a splitmix
// substream keyed by (seed, day) or (seed, job UID), so the reduction is
// bit-identical for any execution order, and a fleet's clusters can run
// on any number of shards (internal/fleet).
package workload

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/node"
	"repro/internal/pbs"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Class describes one workload class: which crunch profile it runs, how
// much of its wall time is computation, and its I/O signature.
type Class struct {
	Name string
	// Crunch is the pure-computation counter signature.
	Crunch profile.Profile
	// ComputeDuty is the fraction of job wall time spent crunching; the
	// rest is communication/imbalance.
	ComputeDuty float64
	// CommActive is the fraction of non-compute time spent in the
	// message-passing software path (buffer copies); the remainder idles.
	CommActive float64
	// Comm is the message-passing service signature.
	Comm profile.Profile
	// PerfSigma is the lognormal sigma of per-job performance jitter.
	PerfSigma float64
	// MemoryPerNode is the per-node working set (drives the record and,
	// for paging classes, already baked into the crunch profile).
	MemoryPerNode uint64
	// MsgBytesPerFlop scales message volume with computation.
	MsgBytesPerFlop float64
	// DiskOutBytesPerSec is steady result-output traffic to the NFS home
	// filesystems (memory-to-device: dma_read).
	DiskOutBytesPerSec float64
}

// jobProfile builds the effective per-node profile for one job instance:
// jittered crunch, duty-cycled, overlaid with active comm time, with DMA
// rates derived from the class's message volume.
func (c Class) jobProfile(jitter float64) profile.Profile {
	crunch := c.Crunch.Scale(jitter)
	p := crunch.Scale(c.ComputeDuty)
	p = p.Plus(c.Comm.Scale((1 - c.ComputeDuty) * c.CommActive))

	// Message traffic: each node both sends and receives at the same
	// volume (halo exchanges are symmetric); sends are dma_read
	// (memory-to-device), receives dma_write. Disk output adds reads.
	inJobFlopsPerSec := p.Mflops * 1e6
	msgTransfersPerSec := float64(c.MsgBytesPerFlop * inJobFlopsPerSec / 64)
	diskTransfersPerSec := float64(c.DiskOutBytesPerSec / 64)
	p = p.WithDMA(msgTransfersPerSec+diskTransfersPerSec, msgTransfersPerSec)
	p.Name = c.Name
	return p
}

// Mix is the full scenario registry: the named client population with its
// shares and arrival shaping, the large-job policy, and the campaign-wide
// size/runtime/quality distributions. It is pure data — the generator
// compiles it once and every draw it implies comes from the caller's
// substream — so a Mix can come from DefaultMix (the paper's 1996
// population) or be resolved from a declarative workload spec
// (internal/spec) without touching generator code. A Mix is not part of
// the serialized Result: the campaign database records the resolved
// numbers, not the scenario that produced them.
type Mix struct {
	// Clients are walked in order for class assignment; exactly one must
	// be the remainder.
	Clients []Client
	// LargeJobs reroutes jobs above the node-count threshold.
	LargeJobs LargeJobPolicy
	// JobSize is the campaign-wide node-count distribution (Figure 2's
	// marginal for the paper mix); clients may override it.
	JobSize SizeDist
	// Runtime is the campaign-wide wall-time distribution.
	Runtime Dist
	// Quality is the day-level tuning-quality multiplier distribution.
	Quality Dist
	// WeekendFactor multiplies submission demand on days 5 and 6 of each
	// week (the campaign starts on a Monday); 1 means no dip.
	WeekendFactor float64
	// Users is the synthetic submitting-user population size.
	Users int
}

// ClientNamed returns the client with the given class name, or nil.
func (m *Mix) ClientNamed(name string) *Client {
	for i := range m.Clients {
		if m.Clients[i].Class.Name == name {
			return &m.Clients[i]
		}
	}
	return nil
}

// MaxJobNodes returns the largest node count a job of this mix can
// request: the biggest positively weighted count of every client's size
// override, and of the mix-wide table if some client keeps it. PBS
// rejects a job larger than its cluster, so a campaign needs at least
// this many nodes.
func (m *Mix) MaxJobNodes() int {
	most, shared := 0, false
	for i := range m.Clients {
		if js := m.Clients[i].JobSize; js != nil {
			most = max(most, js.maxNodes())
		} else {
			shared = true
		}
	}
	if shared {
		most = max(most, m.JobSize.maxNodes())
	}
	return most
}

// classByName returns the class with the given name; it panics on an
// unknown name, which can only mean a Mix was swapped mid-campaign.
func (m *Mix) classByName(name string) Class {
	if cl := m.ClientNamed(name); cl != nil {
		return cl.Class
	}
	panic("workload: unknown class " + name)
}

// PaperJobSize returns the paper's node-count demand distribution
// (Figure 2's marginal): counts and weights chosen so 16-, 32- and 8-node
// jobs dominate wall time and >64-node jobs are rare.
func PaperJobSize() SizeDist {
	return SizeDist{
		Counts:  []int{1, 2, 4, 8, 16, 24, 28, 32, 48, 64, 80, 96, 128},
		Weights: []float64{3, 3, 6, 15, 32, 5, 4, 19, 6, 7, 0.9, 0.6, 0.4},
	}
}

// PaperRuntime returns the paper's wall-time distribution: lognormal with
// a ~9900 s median, clamped to [700 s, one day].
func PaperRuntime() Dist {
	return Dist{Kind: DistLogNormal, A: 9.2, B: 0.85, Min: 700, Max: 86400}
}

// PaperQuality returns the paper's day-quality distribution: most days
// sit below 1 (a development machine), a few are benchmark-grade.
func PaperQuality() Dist {
	return Dist{Kind: DistLogNormal, A: -0.22, B: 0.30, Min: 0.35, Max: 1.35}
}

// PaperWeekendFactor is the weekend submission dip of the 1996 demand
// model — part of the load variability Figure 1 records.
const PaperWeekendFactor = 0.62

// PaperUsers is the synthetic submitting-user population of the 1996 mix.
const PaperUsers = 40

// DefaultMix builds the calibrated 1996 NAS class mix from measured
// kernel profiles. Clients are ordered as the class-assignment walk
// consumed its thresholds in the original hard-coded generator — paging,
// debug, tuned, bench, then production absorbing the remainder — so the
// substream draw sequence, and therefore every campaign hash, is
// unchanged. The spec preset presets/paper-1996.json must resolve to
// exactly this value (internal/spec pins that with a DeepEqual test).
func DefaultMix(std profile.Standard) Mix {
	production := Class{
		Name:               "production-cfd",
		Crunch:             std.CFD,
		ComputeDuty:        0.80,
		CommActive:         0.45,
		Comm:               std.Comm,
		PerfSigma:          0.45,
		MemoryPerNode:      48 << 20,
		MsgBytesPerFlop:    0.06,
		DiskOutBytesPerSec: 300e3,
	}
	tuned := Class{
		Name:               "tuned-cfd",
		Crunch:             std.BT, // high-ILP, cache-blocked codes
		ComputeDuty:        0.50,
		CommActive:         0.5,
		Comm:               std.Comm,
		PerfSigma:          0.25,
		MemoryPerNode:      24 << 20,
		MsgBytesPerFlop:    0.03,
		DiskOutBytesPerSec: 200e3,
	}
	debug := Class{
		Name:               "debug",
		Crunch:             std.CFD.Scale(0.45),
		ComputeDuty:        0.55,
		CommActive:         0.5,
		Comm:               std.Comm,
		PerfSigma:          0.6,
		MemoryPerNode:      16 << 20,
		MsgBytesPerFlop:    0.08,
		DiskOutBytesPerSec: 100e3,
	}
	bench := Class{
		Name:               "npb-bench",
		Crunch:             std.BT,
		ComputeDuty:        0.55,
		CommActive:         0.5,
		Comm:               std.Comm,
		PerfSigma:          0.15,
		MemoryPerNode:      24 << 20,
		MsgBytesPerFlop:    0.03,
		DiskOutBytesPerSec: 100e3,
	}
	paging := Class{
		Name:               "paging",
		Crunch:             std.Paging,
		ComputeDuty:        0.9,  // "compute" here is mostly fault service
		CommActive:         0.12, // thrashing jobs barely reach their comm phases
		Comm:               std.Comm,
		PerfSigma:          0.5,
		MemoryPerNode:      256 << 20, // 2x node memory
		MsgBytesPerFlop:    0.02,
		DiskOutBytesPerSec: 100e3,
	}
	nonFP := Class{
		Name:               "non-fp",
		Crunch:             std.Comm, // integer/copy-bound work
		ComputeDuty:        0.7,
		CommActive:         0.5,
		Comm:               std.Comm,
		PerfSigma:          0.4,
		MemoryPerNode:      32 << 20,
		MsgBytesPerFlop:    0.0,
		DiskOutBytesPerSec: 400e3,
	}
	return Mix{
		Clients: []Client{
			{Class: paging, Share: 0.04, PagingDayShare: 0.35},
			{Class: debug, Share: 0.13, PagingDayShare: 0.13},
			{Class: tuned, Share: 0.06, PagingDayShare: 0.06},
			{Class: bench, Share: 0.04, PagingDayShare: 0.04},
			{Class: production, Remainder: true}, // moderately tuned multi-block CFD: the bulk
			{Class: nonFP},                       // reached only through the large-job policy
		},
		// The paper: >64-node jobs were paging (memory oversubscription),
		// not floating-point intensive, or using synchronous comm.
		LargeJobs: LargeJobPolicy{
			ThresholdNodes: 64,
			Overrides: []LargeJobOverride{
				{Client: 0, Prob: 0.75}, // paging
				{Client: 5, Prob: 0.6},  // non-fp
			},
			Fallback: 4, // production
		},
		JobSize:       PaperJobSize(),
		Runtime:       PaperRuntime(),
		Quality:       PaperQuality(),
		WeekendFactor: PaperWeekendFactor,
		Users:         PaperUsers,
	}
}

// Config parameterises a campaign.
type Config struct {
	Days  int // 270 for the paper's nine months
	Nodes int // 144
	Seed  uint64
	// Workers is read by nothing: the campaign tick is serial, and the
	// profile-measurement width is profile.MeasureStandardWorkers'
	// argument. It is excluded from the serialized campaign database.
	//
	// Deprecated: kept only because the repository benchmark (perfbench)
	// still assigns it; setting it has no effect.
	Workers int `json:"-"`
	// Scenario names the workload spec this configuration was resolved
	// from (internal/spec); empty for the built-in paper mix. It is
	// metadata, not model input: the serialized campaign database records
	// the resolved numbers, not the label, so renaming a spec can never
	// change a result hash.
	Scenario string `json:"-"`
	// SamplePeriodSeconds is the counter sampling cadence (900 = 15 min).
	SamplePeriodSeconds float64
	// MeanUtil / UtilSigma shape the daily demand distribution.
	MeanUtil  float64
	UtilSigma float64
	// PagingDayProb is the probability a day's mix leans oversubscribed.
	PagingDayProb float64
	// MinRecordWall filters batch records (600 s in the paper).
	MinRecordWall float64
	// Faults, when non-nil, threads the chaos layer through the collection
	// path: node crash/reboot windows, dropped and duplicated cron
	// samples, daemon restarts, delayed PBS epilogues (see
	// internal/faults). A nil Faults — or a non-nil all-zero one — leaves
	// the reduction bit-identical to a campaign without the fault layer.
	Faults *faults.Config `json:",omitempty"`
}

// DefaultConfig returns the paper's campaign parameters.
func DefaultConfig(seed uint64) Config {
	return Config{
		Days:                270,
		Nodes:               units.NodeCount,
		Seed:                seed,
		SamplePeriodSeconds: defaultSamplePeriod,
		MeanUtil:            0.65,
		UtilSigma:           0.20,
		PagingDayProb:       0.20,
		MinRecordWall:       600,
	}
}

// TicksPerDay is the number of sampling sweeps in a simulated day. An
// unset SamplePeriodSeconds means NewCampaign's default, the 900 s RS2HPM
// cron cadence.
func (c Config) TicksPerDay() int {
	sp := c.SamplePeriodSeconds
	if sp <= 0 {
		sp = defaultSamplePeriod
	}
	return int(86400 / sp)
}

// defaultSamplePeriod is the sampling cadence of a Config that sets none:
// RS2HPM's 15-minute cron sweep.
const defaultSamplePeriod = 900

// ValidSamplePeriod reports whether seconds is a usable sampling cadence:
// a whole number of seconds that divides a day, so that every day closes
// on a tick.
func ValidSamplePeriod(seconds float64) bool {
	return seconds >= 1 && seconds <= 86400 && seconds == math.Trunc(seconds) && 86400%int(seconds) == 0
}

// Day is the campaign's per-day reduction of the counter stream.
type Day struct {
	Index int
	// Delta is the cluster-wide counter delta for the day (all nodes).
	Delta hpm.Delta
	// BusyNodeSeconds is PBS-allocated node time during the day.
	BusyNodeSeconds float64
}

// Gflops reports the day's system floating-point rate in Gflops.
func (d Day) Gflops() float64 {
	r := hpm.UserRates(d.Delta, 86400)
	return r.MflopsAll / 1000 // cluster-wide Mflops -> Gflops
}

// PerNodeRates reports the day's per-node user rates (the Table 2/3 view:
// cluster totals divided by node count).
func (d Day) PerNodeRates(nodes int) hpm.Rates {
	return hpm.UserRates(d.Delta, 86400*float64(nodes))
}

// Utilization reports the day's PBS utilisation.
func (d Day) Utilization(nodes int) float64 {
	return d.BusyNodeSeconds / (86400 * float64(nodes))
}

// SystemUserFXURatio reports the day's paging indicator (Figure 5 x-axis).
func (d Day) SystemUserFXURatio() float64 {
	return hpm.SystemUserFXURatio(d.Delta)
}

// Result is everything the analysis layer needs.
type Result struct {
	Config  Config
	Days    []Day
	Records []pbs.Record
	// MaxGflops15min is the highest 15-minute system rate observed.
	MaxGflops15min float64
	// DroppedRecords counts jobs under the record filter.
	DroppedRecords int
	// Coverage is the fault layer's sample-accounting report; nil when the
	// campaign ran without fault injection.
	Coverage *faults.Report `json:",omitempty"`
}

// Campaign drives the cluster through the measurement window. It wires the
// three stages together: plans from the Generator are scheduled onto the
// discrete-event clock, each tick advances and samples counter state
// (engine.go), and each closed day streams into the Reducer.
type Campaign struct {
	cfg   Config
	mix   Mix
	gen   Generator
	clock *simclock.Clock
	nodes []*node.Node
	srv   *pbs.Server

	running map[int]*jobRun
	runs    []*jobRun // canonical job-ID-ordered view of running; nil when stale

	prev       []hpm.Counts64 // last sampled totals per node
	curDay     Day
	red        Reducer
	prevBusyNS float64
	maxG15     float64
	lastTick   simclock.Time
	ran        bool

	// Fault-injection state, all touched only on the simulation goroutine;
	// nil/zero when cfg.Faults is nil. The plan is rebuilt at each day
	// boundary from the day's own substream, fates is the per-tick scratch
	// sampleNodes executes, pendingRebase marks nodes whose next captured
	// sample must re-baseline after a counter reset, and lastCaptured
	// tracks each node's last successful sample time for the covered/lost
	// node-second accounting.
	plan          faults.Plan
	planner       FaultPlanner
	fates         []faults.Fate
	pendingRebase []bool
	lastCaptured  []float64
	report        faults.Report
	dayCov        faults.DayCoverage
	ticksPerDay   int
}

// NewCampaign assembles a campaign. The mix usually comes from
// DefaultMix(profile.MeasureStandard(seed)).
func NewCampaign(cfg Config, mix Mix) *Campaign {
	if cfg.Days <= 0 || cfg.Nodes <= 0 {
		panic(fmt.Sprintf("workload: bad campaign config %+v", cfg))
	}
	if cfg.SamplePeriodSeconds <= 0 {
		cfg.SamplePeriodSeconds = defaultSamplePeriod
	}
	clock := &simclock.Clock{}
	nodes := make([]*node.Node, cfg.Nodes)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i})
	}
	c := &Campaign{
		cfg:     cfg,
		mix:     mix,
		gen:     NewGenerator(cfg, mix),
		clock:   clock,
		nodes:   nodes,
		running: make(map[int]*jobRun),
		prev:    make([]hpm.Counts64, cfg.Nodes),
	}
	c.srv = pbs.New(clock, nodes, pbs.Config{DrainThreshold: 64, MinRecordWall: cfg.MinRecordWall})
	c.srv.OnStart = c.onStart
	c.srv.OnEnd = c.onEnd
	return c
}

// FaultPlanner supplies each day's fault schedule. The campaign's
// default planner derives the plan from (Config.Faults, seed, day) via
// faults.NewPlan; a replayer substitutes recorded plans instead, so a
// faulted campaign can be re-simulated from a trace without re-deriving
// its outages. Implementations must return a plan for the requested
// geometry — the campaign asks once per day boundary, in day order.
type FaultPlanner interface {
	PlanFaultDay(day, nodes, ticks int) faults.Plan
}

// SetGenerator replaces the campaign's generate stage. The simulate and
// reduce stages are untouched: a substituted generator that yields the
// plans a live generator would have yielded produces a bit-identical
// Result. This is the record/replay seam (internal/replay) — the
// recorder wraps the live generator to tee plans out, the replayer
// substitutes a trace-backed one. Must be called before Run/RunInto.
func (c *Campaign) SetGenerator(g Generator) {
	if c.ran {
		panic("workload: SetGenerator after campaign ran")
	}
	if g == nil {
		panic("workload: SetGenerator(nil)")
	}
	c.gen = g
}

// SetFaultPlanner replaces the campaign's fault-plan derivation (the
// faults.NewPlan call at each day boundary). Only consulted when the
// campaign is faulted (Config.Faults non-nil); must be called before
// Run/RunInto.
func (c *Campaign) SetFaultPlanner(p FaultPlanner) {
	if c.ran {
		panic("workload: SetFaultPlanner after campaign ran")
	}
	c.planner = p
}

// onStart builds the job's effective profile. The jitter draw and the
// run's stochastic-rounding stream both come from the job's private
// substream, derived from (seed, StreamID): a job's counter contribution
// is a pure function of its identity and lifetime.
func (c *Campaign) onStart(j *pbs.Job) {
	class := c.mix.classByName(j.Spec.Class)
	src := rng.Stream(c.cfg.Seed, jobStreamBase+j.Spec.StreamID)
	// Mean-one lognormal jitter (mu = -sigma^2/2).
	sigma := class.PerfSigma
	jitter := src.LogNormal(-sigma*sigma/2, sigma)
	if f := j.Spec.PerfFactor; f > 0 {
		jitter *= f
	}
	if jitter < 0.2 {
		jitter = 0.2
	}
	if jitter > 1.6 {
		jitter = 1.6
	}
	c.running[j.ID] = &jobRun{
		job:     j,
		prof:    class.jobProfile(jitter),
		applied: c.clock.Now(),
		rnd:     src,
	}
	c.runs = nil
}

// onEnd flushes the job's remaining counter extrapolation before the PBS
// epilogue reads the final totals. Under fault injection the epilogue's
// capture can race job teardown: a delayed epilogue truncates the tail of
// the extrapolation, so the lost counts vanish from the record and the
// day totals alike — exactly what the real race destroyed.
func (c *Campaign) onEnd(j *pbs.Job) {
	run, ok := c.running[j.ID]
	if !ok {
		return
	}
	end := c.clock.Now()
	if c.cfg.Faults != nil {
		if delay := c.cfg.Faults.EpilogueDelay(c.cfg.Seed, j.Spec.StreamID); delay > 0 {
			trunc := end - simclock.Time(delay)
			if trunc < run.applied {
				trunc = run.applied // never un-advance already-flushed counts
			}
			if lost := (end - trunc).Seconds(); lost > 0 {
				c.dayCov.DelayedEpilogues++
				c.dayCov.LostNodeSeconds += float64(lost * float64(len(j.Nodes())))
			}
			end = trunc
		}
	}
	run.advanceTo(end)
	delete(c.running, j.ID)
	c.runs = nil
}

// sortedRuns returns the running jobs in canonical (ascending job-ID)
// order, rebuilding the cached slice only when the running set changed.
func (c *Campaign) sortedRuns() []*jobRun {
	if c.runs != nil {
		return c.runs
	}
	c.runs = make([]*jobRun, 0, len(c.running))
	for _, r := range c.running {
		c.runs = append(c.runs, r)
	}
	// Insertion sort by job ID: the set is small and mostly ordered.
	for i := 1; i < len(c.runs); i++ {
		for j := i; j > 0 && c.runs[j].job.ID < c.runs[j-1].job.ID; j-- {
			c.runs[j], c.runs[j-1] = c.runs[j-1], c.runs[j]
		}
	}
	return c.runs
}

// tick is the 15-minute sampler: advance all running jobs, then fold every
// node's new counts into the current day and track the peak 15-minute rate.
// tickNo is the zero-based campaign tick index; under fault injection it
// locates the tick in the day's fault plan.
func (c *Campaign) tick(at simclock.Time, tickNo int) {
	var fates []faults.Fate
	if c.cfg.Faults != nil {
		fates = c.prepareFaultTick(at, tickNo)
	}
	advanceRuns(c.sortedRuns(), at)
	tickDelta := sampleNodes(c.nodes, c.prev, fates)
	c.curDay.Delta.Add(tickDelta)

	clean := true
	if fates != nil {
		clean = c.tallyFaultTick(at, fates)
	}
	span := (at - c.lastTick).Seconds()
	// Only a gap-free tick is a valid 15-minute rate observation: a delta
	// that carries counts across a sampling gap covers more wall time than
	// the span and would fake a peak.
	if clean && span > 0 {
		g := hpm.UserRates(tickDelta, span).MflopsAll / 1000
		if g > c.maxG15 {
			c.maxG15 = g
		}
	}
	c.lastTick = at
}

// prepareFaultTick builds the day's plan at the day boundary, applies the
// counter resets scheduled for this tick, and decides every node's
// sampling fate. Resets only land on idle nodes: a busy node's crash is
// modelled as a sampling outage only, because zeroing counters under a
// running job would corrupt its PBS baseline (see DESIGN.md).
func (c *Campaign) prepareFaultTick(at simclock.Time, tickNo int) []faults.Fate {
	day, dayTick := tickNo/c.ticksPerDay, tickNo%c.ticksPerDay
	if dayTick == 0 {
		if c.planner != nil {
			c.plan = c.planner.PlanFaultDay(day, c.cfg.Nodes, c.ticksPerDay)
		} else {
			c.plan = faults.NewPlan(*c.cfg.Faults, c.cfg.Seed, day, c.cfg.Nodes, c.ticksPerDay)
		}
	}
	for n := range c.nodes {
		k := c.plan.ResetAt(n, dayTick)
		if k == faults.NoReset || !c.srv.NodeFree(n) {
			continue
		}
		switch k {
		case faults.RebootReset:
			c.nodes[n].ResetMonitor()
		case faults.RestartReset:
			c.nodes[n].ResetExtendedTotals()
		}
		c.pendingRebase[n] = true
		c.dayCov.Resets++
	}
	for n := range c.fates {
		switch {
		case c.plan.Down(n, dayTick):
			c.fates[n] = faults.FateDown
		case c.plan.Dropped(n, dayTick):
			c.fates[n] = faults.FateDropped
		case c.pendingRebase[n]:
			c.fates[n] = faults.FateRebase
		case c.plan.Duplicated(n, dayTick):
			c.fates[n] = faults.FateDuplicated
		default:
			c.fates[n] = faults.FateCaptured
		}
	}
	return c.fates
}

// tallyFaultTick folds the tick's fates into the day ledger and reports
// whether the tick's cluster delta is gap-free (every node captured over
// exactly one sample period).
func (c *Campaign) tallyFaultTick(at simclock.Time, fates []faults.Fate) bool {
	now, prevTick := at.Seconds(), c.lastTick.Seconds()
	clean := true
	for n, f := range fates {
		c.dayCov.Expected++
		switch f {
		case faults.FateDown:
			c.dayCov.Down++
			clean = false
		case faults.FateDropped:
			c.dayCov.Dropped++
			clean = false
		case faults.FateRebase:
			c.dayCov.Captured++
			c.dayCov.Rebased++
			// The interval back to the last capture was destroyed by the
			// reset; the rebase observes nothing.
			c.dayCov.LostNodeSeconds += now - c.lastCaptured[n]
			c.pendingRebase[n] = false
			c.lastCaptured[n] = now
			clean = false
		default: // FateCaptured, FateDuplicated
			c.dayCov.Captured++
			if f == faults.FateDuplicated {
				c.dayCov.Duplicates++
			}
			if c.lastCaptured[n] != prevTick {
				clean = false // delta bridges an earlier gap
			}
			c.dayCov.CoveredNodeSeconds += now - c.lastCaptured[n]
			c.lastCaptured[n] = now
		}
	}
	return clean
}

// endDay closes out the current day and streams it to the reducer.
func (c *Campaign) endDay(dayIdx int) {
	busy := c.srv.BusyNodeSeconds()
	c.curDay.Index = dayIdx
	c.curDay.BusyNodeSeconds = busy - c.prevBusyNS
	c.prevBusyNS = busy
	c.red.ReduceDay(c.curDay)
	c.curDay = Day{}
	if c.cfg.Faults != nil {
		c.dayCov.Day = dayIdx
		c.report.Days = append(c.report.Days, c.dayCov)
		c.report.Total.Add(c.dayCov.Coverage)
		// Fates per day, batched from the ledger: one atomic Add per fate
		// per day instead of one per node per tick.
		addLedger(telFateCaptured, c.dayCov.Captured)
		addLedger(telFateDropped, c.dayCov.Dropped)
		addLedger(telFateDown, c.dayCov.Down)
		addLedger(telFateRebased, c.dayCov.Rebased)
		addLedger(telFateDuplicates, c.dayCov.Duplicates)
		addLedger(telFaultResets, c.dayCov.Resets)
		addLedger(telDelayedEpilogues, c.dayCov.DelayedEpilogues)
		c.dayCov = faults.DayCoverage{}
	}
}

// schedulePlan enqueues a generated day's submissions onto the clock.
func (c *Campaign) schedulePlan(plan DayPlan) {
	for _, js := range plan.Jobs {
		spec := js.Spec
		c.clock.At(js.At, func() {
			// Keep backlog bounded: drop submissions when the queue is
			// deep (users stop submitting into a jammed machine).
			if c.srv.QueueLength() < 40 {
				if _, err := c.srv.Submit(spec); err != nil {
					panic(err)
				}
			}
		})
	}
}

// Run executes the campaign and returns the reduction.
func (c *Campaign) Run() Result {
	var rr ResultReducer
	c.RunInto(&rr)
	return rr.Result()
}

// RunInto executes the campaign, streaming the reduction into red: one
// ReduceDay per simulated day as it closes, then Finish. A campaign runs
// once; calling RunInto again panics.
func (c *Campaign) RunInto(red Reducer) {
	if c.ran {
		panic("workload: campaign already run")
	}
	c.ran = true
	if !ValidSamplePeriod(c.cfg.SamplePeriodSeconds) {
		panic(fmt.Sprintf("workload: sample period %v must divide a day", c.cfg.SamplePeriodSeconds))
	}
	c.red = red

	period := simclock.Time(c.cfg.SamplePeriodSeconds)
	ticksPerDay := c.cfg.TicksPerDay()
	total := simclock.Days(float64(c.cfg.Days))

	if c.cfg.Faults != nil {
		c.ticksPerDay = ticksPerDay
		c.fates = make([]faults.Fate, c.cfg.Nodes)
		c.pendingRebase = make([]bool, c.cfg.Nodes)
		c.lastCaptured = make([]float64, c.cfg.Nodes)
	}

	// Generate stage: plan every day and schedule its submissions. Plans
	// only depend on (Config, mix, day), so this loop could run in any
	// order; the events land on the clock in deterministic time order
	// regardless.
	for d := 0; d < c.cfg.Days; d++ {
		w := telemetry.StartWatch()
		c.schedulePlan(c.gen.GenerateDay(d))
		w.Record(telGenerateNs)
	}

	// Simulate stage: the sampler; the tick landing on a day boundary
	// closes the day after folding its last interval in.
	tickNo := 0
	c.clock.EveryUntil(period, period, total, func(at simclock.Time) {
		w := telemetry.StartWatch()
		c.tick(at, tickNo)
		w.Record(telTickNs)
		telTicks.Inc()
		tickNo++
		if tickNo%ticksPerDay == 0 {
			wd := telemetry.StartWatch()
			c.endDay(tickNo/ticksPerDay - 1)
			wd.Record(telReduceNs)
			telDays.Inc()
		}
	})
	c.clock.RunUntil(total)

	// Reduce stage: end-of-campaign aggregates.
	var cov *faults.Report
	if c.cfg.Faults != nil {
		cov = &c.report
		if err := cov.Check(); err != nil {
			panic(fmt.Sprintf("workload: coverage ledger corrupt: %v", err))
		}
	}
	c.red.Finish(Final{
		Config:         c.cfg,
		Records:        c.srv.Records(),
		MaxGflops15min: c.maxG15,
		DroppedRecords: c.srv.DroppedRecords(),
		Coverage:       cov,
	})
	c.red = nil
}
