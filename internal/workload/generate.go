package workload

// The generate stage. A Generator turns (Config, day) into the day's job
// submissions — pure, with every random draw taken from an RNG substream
// derived via splitmix from (seed, day) and each job tagged with the
// substream ID its in-flight randomness (performance jitter, stochastic
// counter rounding) will use. Nothing here touches the clock, the batch
// system, or the nodes, so plans for different days can be produced in any
// order — or concurrently — and come out bit-identical.

import (
	"fmt"

	"repro/internal/pbs"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// RNG substream namespaces. Day-generation streams and per-job streams
// must never collide: generation consumes stream genStreamBase+day, while
// a job consumes stream jobStreamBase+UID. Job UIDs are day<<jobUIDShift|n,
// which stays far below the 2^40 namespace spacing for any realistic
// campaign. Fleet campaigns derive per-cluster seeds from
// clusterStreamBase+cluster (see ClusterSeed in fleet.go), again far below
// the spacing for any realistic fleet; 3<<40 and 4<<40 are skipped because
// internal/faults draws its plan and epilogue streams there from the same
// campaign seed.
const (
	genStreamBase     uint64 = 1 << 40
	jobStreamBase     uint64 = 2 << 40
	clusterStreamBase uint64 = 5 << 40
	jobUIDShift              = 20 // jobs per day fit comfortably in 2^20
)

// JobSpec is one generated submission: when it arrives and what it asks
// PBS for. The embedded pbs.Spec carries the job's StreamID, the identity
// its private RNG stream is derived from.
type JobSpec struct {
	// UID is the campaign-unique job identity: day<<20 | index-within-day.
	UID uint64
	// At is the submission instant.
	At simclock.Time
	// Spec is the batch request.
	Spec pbs.Spec
}

// DayPlan is one day's generated submissions plus the day-level character
// the draws were conditioned on.
type DayPlan struct {
	Day int
	// Util is the day's target utilisation (weekend dip applied).
	Util float64
	// PagingDay marks a day whose mix leans memory-oversubscribed.
	PagingDay bool
	// Quality is the day's tuning-quality multiplier.
	Quality float64
	Jobs    []JobSpec
}

// Generator produces a day's job arrivals. Implementations must be pure:
// GenerateDay(d) returns the same plan no matter how many times or in
// what order days are generated.
type Generator interface {
	GenerateDay(day int) DayPlan
}

// mixGenerator is the demand model compiled from a Mix: daily utilisation
// draws, the node-count marginal, the client-share walk, the large-job
// policy, and the per-client arrival shaping. Every scenario knob is data
// in the Mix; the generator only fixes the order draws are consumed in,
// which is what makes a scenario's plans reproducible.
type mixGenerator struct {
	cfg Config
	mix Mix

	// sizes is the compiled campaign-wide node-count sampler;
	// clientSizes[i] is client i's compiled override, nil for none.
	sizes       *rng.Weighted
	clientSizes []*rng.Weighted
	// remainder indexes the client absorbing the unassigned share.
	remainder int
}

// NewGenerator builds the standard demand generator for a campaign
// configuration and class mix. It panics on a structurally invalid mix
// (no clients, no remainder, unusable weight table): DefaultMix is valid
// by construction and spec-resolved mixes are validated with field-level
// errors long before they reach here.
//
//hpmlint:pure the generator must be constructible identically on every worker
func NewGenerator(cfg Config, mix Mix) Generator {
	if len(mix.Clients) == 0 {
		panic("workload: mix has no clients")
	}
	g := &mixGenerator{
		cfg:         cfg,
		mix:         mix,
		sizes:       mix.JobSize.sampler(),
		clientSizes: make([]*rng.Weighted, len(mix.Clients)),
		remainder:   -1,
	}
	for i := range mix.Clients {
		if mix.Clients[i].Remainder {
			if g.remainder >= 0 {
				panic("workload: mix has more than one remainder client")
			}
			g.remainder = i
		}
		if js := mix.Clients[i].JobSize; js != nil {
			g.clientSizes[i] = js.sampler()
		}
	}
	if g.remainder < 0 {
		panic("workload: mix has no remainder client")
	}
	lj := mix.LargeJobs
	if lj.ThresholdNodes > 0 {
		if lj.Fallback < 0 || lj.Fallback >= len(mix.Clients) {
			panic("workload: large-job fallback out of range")
		}
		for _, ov := range lj.Overrides {
			if ov.Client < 0 || ov.Client >= len(mix.Clients) {
				panic("workload: large-job override out of range")
			}
		}
	}
	return g
}

// classFor assigns a workload client given the node count and day
// character, consuming draws from the day's generation stream: one Bool
// per large-job override until one fires, or a single uniform draw walked
// down the cumulative client shares.
func (g *mixGenerator) classFor(rnd *rng.Source, nodes int, pagingDay bool, day int) int {
	if lj := g.mix.LargeJobs; lj.ThresholdNodes > 0 && nodes > lj.ThresholdNodes {
		for _, ov := range lj.Overrides {
			if rnd.Bool(ov.Prob) {
				return ov.Client
			}
		}
		return lj.Fallback
	}
	x := rnd.Float64()
	cum := 0.0
	for i := range g.mix.Clients {
		cl := &g.mix.Clients[i]
		if cl.Remainder {
			continue
		}
		share := cl.Share
		if pagingDay {
			share = cl.PagingDayShare
		}
		cum += float64(share * cl.Lifecycle.shareFactor(day))
		if x < cum {
			return i
		}
	}
	return g.remainder
}

// GenerateDay produces the day's job arrivals: total node-seconds of
// demand set by the day's target utilisation, spread uniformly over the
// day. Every draw comes from the day's own substream, so the plan depends
// only on (Config, mix, day).
//
//hpmlint:pure the staged engine replays days in any order at any worker count
func (g *mixGenerator) GenerateDay(day int) DayPlan {
	rnd := rng.Stream(g.cfg.Seed, genStreamBase+uint64(day))

	util := rnd.NormalClamped(g.cfg.MeanUtil, g.cfg.UtilSigma, 0.05, 0.97)
	// Weekend dips: submission demand drops when the users go home — part
	// of the load-demand fluctuation Figure 1 attributes the variability
	// to. (The campaign starts on a Monday.)
	if dow := day % 7; dow == 5 || dow == 6 {
		util *= g.mix.WeekendFactor
	}
	pagingDay := rnd.Bool(g.cfg.PagingDayProb)
	// Day quality: how well-tuned the day's job population is. For the
	// paper mix most days sit below 1 (development machine), a few are
	// benchmark-grade.
	quality := g.mix.Quality.Sample(rnd)

	plan := DayPlan{Day: day, Util: util, PagingDay: pagingDay, Quality: quality}
	demand := util * float64(g.cfg.Nodes) * 86400
	dayStart := simclock.Days(float64(day))
	for demand > 0 {
		// Draw order is part of the determinism contract: the campaign-wide
		// size and runtime draws come first so class assignment can depend
		// on the node count (the large-job policy); a client's overrides
		// then re-draw after assignment, consuming extra draws only in
		// scenarios that declare them — which is what keeps the paper
		// preset's stream bit-identical to the original hard-coded mix.
		nodes := g.mix.JobSize.Counts[g.sizes.Sample(rnd)]
		wall := g.mix.Runtime.Sample(rnd)
		ci := g.classFor(rnd, nodes, pagingDay, day)
		cl := &g.mix.Clients[ci]
		if w := g.clientSizes[ci]; w != nil {
			nodes = cl.JobSize.Counts[w.Sample(rnd)]
		}
		if cl.Runtime != nil {
			wall = cl.Runtime.Sample(rnd)
		}
		frac := cl.Lifecycle.warp(cl.Arrival.sample(rnd))
		at := dayStart + simclock.Time(frac*86400)
		uid := uint64(day)<<jobUIDShift | uint64(len(plan.Jobs))
		plan.Jobs = append(plan.Jobs, JobSpec{
			UID: uid,
			At:  at,
			Spec: pbs.Spec{
				User:               fmt.Sprintf("u%02d", rnd.Intn(g.mix.Users)),
				Nodes:              nodes,
				WallSeconds:        wall,
				Class:              cl.Class.Name,
				MemoryPerNodeBytes: cl.Class.MemoryPerNode,
				PerfFactor:         quality,
				StreamID:           uid,
			},
		})
		demand -= float64(float64(nodes) * wall)
	}
	return plan
}
