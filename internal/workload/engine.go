package workload

// The simulate stage: the campaign's bulk state advancement, once per
// tick — extrapolating every running job's counter profile onto its
// nodes, then sampling every node's extended counters into the tick's
// cluster delta. Dedicated node allocation means no two jobs share a
// node, and every job rounds fractional counts with its own
// splitmix-derived stream, so a job's counters depend only on its
// identity and lifetime. The parallel axis is the fleet's (whole
// clusters on shards, internal/fleet), not the tick.

import (
	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/node"
	"repro/internal/pbs"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// jobRun is one executing job's extrapolation state. Its rnd is the job's
// private stream (derived from the campaign seed and the job's StreamID),
// so the counters it accumulates depend only on the job's identity and
// lifetime, never on the order jobs are advanced in.
type jobRun struct {
	job     *pbs.Job
	prof    profile.Profile
	applied simclock.Time // counters advanced up to this instant
	rnd     *rng.Source
}

// advanceTo applies the job's profile to its nodes up to instant t. The
// interval is resolved into a step once for the whole job; each node then
// only draws and adds. The step is a local, so it stays on the stack.
func (r *jobRun) advanceTo(t simclock.Time) {
	dt := (t - r.applied).Seconds()
	if dt <= 0 {
		return
	}
	var step profile.Step
	r.prof.StepFor(dt, &step)
	for _, nd := range r.job.Nodes() {
		nd.ApplyStep(&step, r.rnd)
	}
	r.applied = t
}

// advanceRuns extrapolates each run's counters to instant t. Runs arrive
// in canonical (job-ID) order.
//
//hpmlint:hotpath runs once per campaign tick; TestSerialTickAllocFree guards the same path
func advanceRuns(runs []*jobRun, t simclock.Time) {
	w := telemetry.StartWatch()
	for _, r := range runs {
		r.advanceTo(t)
	}
	w.Record(telAdvanceNs)
	telAdvanced.Add(uint64(len(runs)))
}

// sampleNodes is the cron sweep: it reads each node's extended counters,
// differences them against prev (updated in place), and returns the
// cluster-wide delta, the sum over nodes in cluster order. fates, when
// non-nil, carries each node's sampling fate for the tick (fault
// injection); a nil fates samples every node, exactly the pre-fault
// behaviour.
//
//hpmlint:hotpath runs once per campaign tick; TestSerialTickAllocFree guards the same path
func sampleNodes(nodes []*node.Node, prev []hpm.Counts64, fates []faults.Fate) hpm.Delta {
	w := telemetry.StartWatch()
	var total hpm.Delta
	for i, nd := range nodes {
		sampleNode(nd, prev, fates, i, &total)
	}
	w.Record(telSampleNs)
	telSampled.Add(uint64(len(nodes)))
	return total
}

// sampleNode executes one node's sampling fate, adding whatever the read
// observes to *d. A captured read differences against the previous
// capture; a down or dropped sample leaves prev untouched so the counts
// carry to the next successful read; a rebase re-baselines after a
// counter reset without producing a delta (the daemon cannot know how
// much of the post-reset count is new); a duplicated read reads the node
// twice — the overlapping cron case — and by construction the second read
// contributes nothing, the invariant the duplicate-injection tests pin.
func sampleNode(nd *node.Node, prev []hpm.Counts64, fates []faults.Fate, i int, d *hpm.Delta) {
	f := faults.FateCaptured
	if fates != nil {
		f = fates[i]
	}
	switch f {
	case faults.FateDown, faults.FateDropped:
		// Nothing read; the counts carry to the next capture.
	case faults.FateRebase:
		prev[i] = nd.Counters()
	case faults.FateDuplicated:
		nd.SampleInto(&prev[i], d)
		nd.SampleInto(&prev[i], d) // the second, overlapping read
	default:
		nd.SampleInto(&prev[i], d)
	}
}
