package workload

// Scenario shaping: the parts of a Mix that describe *who* submits jobs
// and *when*, rather than what the jobs compute. Everything here is pure
// data evaluated with either no randomness at all (share factors, arrival
// warps — pure functions of the day or of a uniform draw) or a fixed
// number of substream draws, so the generator stays bit-identical at any
// worker count no matter which scenario is loaded.

import (
	"math"

	"repro/internal/rng"
)

// ArrivalProcess selects how a client's jobs are placed within the day.
// The generator is closed-loop — the number of jobs per day comes from the
// demand model, not from an open arrival rate — so the process shapes the
// placement of a day's submissions, not their count.
type ArrivalProcess uint8

const (
	// ArrivalPoisson places each job independently and uniformly over the
	// day — the order statistics of a homogeneous Poisson process, and
	// exactly what the 1996 mix hard-coded.
	ArrivalPoisson ArrivalProcess = iota
	// ArrivalGammaBurst clusters submissions into bursts: the day is cut
	// into roughly 24/CV burst windows and each job lands at an
	// exponentially-distributed offset into one window. Larger CV means
	// fewer, denser bursts.
	ArrivalGammaBurst
	// ArrivalWeibull warps placement with density shape*p^(shape-1):
	// shape < 1 front-loads the day, shape > 1 ramps load toward the end,
	// shape = 1 is uniform.
	ArrivalWeibull
)

// Arrival is one client's placement process.
type Arrival struct {
	Process ArrivalProcess
	// CV is the gamma-burst coefficient of variation (ignored otherwise).
	CV float64
	// Shape is the Weibull shape parameter (ignored otherwise).
	Shape float64
}

// sample returns the job's position in the day as a fraction in [0, 1).
// Poisson consumes one draw — the same single uniform the 1996 generator
// spent — so the paper preset's stream is untouched.
func (a Arrival) sample(rnd *rng.Source) float64 {
	switch a.Process {
	case ArrivalGammaBurst:
		cv := a.CV
		if cv < 1 {
			cv = 1
		}
		bursts := int(24/cv + 0.5)
		if bursts < 1 {
			bursts = 1
		}
		b := rnd.Intn(bursts)
		off := rnd.Exponential(0.25)
		off -= math.Floor(off) // fold the exponential tail back into the window
		return (float64(b) + off) / float64(bursts)
	case ArrivalWeibull:
		shape := a.Shape
		if shape <= 0 {
			shape = 1
		}
		return math.Pow(rnd.Float64(), 1/shape)
	default:
		return rnd.Float64()
	}
}

// LifecyclePattern selects how a client cohort's presence evolves over
// the campaign.
type LifecyclePattern uint8

const (
	// LifeSteady keeps the cohort's share constant — the 1996 behaviour.
	LifeSteady LifecyclePattern = iota
	// LifeDiurnal keeps the share constant but concentrates the cohort's
	// within-day arrivals around Peak with strength Amplitude.
	LifeDiurnal
	// LifeSpike multiplies the cohort's share by Factor for Days days
	// starting at StartDay (a deadline crunch, a benchmark drive).
	LifeSpike
	// LifeDrain ramps the cohort's share linearly from full at StartDay to
	// zero at StartDay+Days (a project winding down, a decommissioned
	// code).
	LifeDrain
)

// Lifecycle is one client's cohort dynamics. The zero value is steady.
type Lifecycle struct {
	Pattern LifecyclePattern
	// StartDay and Days bound the spike or drain window.
	StartDay int
	Days     int
	// Factor is the spike's share multiplier.
	Factor float64
	// Amplitude in [0, 1] is the diurnal concentration strength; Peak in
	// [0, 1) is the within-day position arrivals concentrate around.
	Amplitude float64
	Peak      float64
}

// shareFactor is the multiplier applied to the client's share on the
// given day — a pure function of the day index, consuming no randomness.
func (l Lifecycle) shareFactor(day int) float64 {
	switch l.Pattern {
	case LifeSpike:
		if day >= l.StartDay && day < l.StartDay+l.Days {
			return l.Factor
		}
	case LifeDrain:
		if day < l.StartDay {
			return 1
		}
		if l.Days <= 0 || day >= l.StartDay+l.Days {
			return 0
		}
		return 1 - float64(day-l.StartDay)/float64(l.Days)
	}
	return 1
}

// warp maps a uniform within-day position to the cohort's diurnal
// placement: a monotone transform whose derivative is smallest around the
// peak, so arrival density is highest there. Identity for every other
// pattern, and for amplitude zero — the paper preset passes positions
// through untouched.
func (l Lifecycle) warp(p float64) float64 {
	if l.Pattern != LifeDiurnal || l.Amplitude <= 0 {
		return p
	}
	o := p - 0.5
	o = float64((1-l.Amplitude)*o) + float64(2*l.Amplitude*o*math.Abs(o))
	p = l.Peak + o
	p -= math.Floor(p) // wrap into [0, 1)
	return p
}

// Client is one named traffic source: a workload class plus its share of
// the job stream and the shaping of its jobs' sizes, runtimes and arrival
// placement. The paper's Table 2 population is six of these.
type Client struct {
	Class Class
	// Share is the client's rate fraction: the probability a generated
	// job (at or below the large-job threshold) is assigned to this
	// client. Non-remainder shares must sum to at most 1; assignment
	// walks clients in Mix order and the remainder client absorbs
	// whatever the walk leaves.
	Share float64
	// PagingDayShare replaces Share on memory-oversubscribed days.
	PagingDayShare float64
	// Remainder marks the client that takes the unassigned share; a valid
	// mix has exactly one.
	Remainder bool
	Arrival   Arrival
	Lifecycle Lifecycle
	// JobSize, when non-nil, re-draws the job's node count from this
	// distribution after class assignment (the mix-wide draw still
	// happens first, so scenarios without overrides keep a bit-identical
	// stream).
	JobSize *SizeDist
	// Runtime, when non-nil, re-draws the job's wall time the same way.
	Runtime *Dist
}

// LargeJobOverride is one step of the large-job class policy: with
// probability Prob the job is assigned to Clients[Client].
type LargeJobOverride struct {
	Client int
	Prob   float64
}

// LargeJobPolicy reroutes jobs above a node-count threshold: the paper
// found >64-node jobs were paging, non-floating-point or barely-tuned
// codes, never the well-behaved production classes. Overrides are
// evaluated in order, each consuming one Bool draw until one fires;
// Fallback takes the rest. A zero ThresholdNodes disables the policy.
type LargeJobPolicy struct {
	ThresholdNodes int
	Overrides      []LargeJobOverride
	Fallback       int
}
