package workload

// The simulate stage. An Engine owns the campaign's bulk state
// advancement: extrapolating every running job's counter profile onto its
// nodes, and sampling every node's extended counters into per-tick deltas.
// Both are embarrassingly parallel — dedicated node allocation means no
// two jobs share a node, and every job rounds fractional counts with its
// own splitmix-derived stream — so the worker-pool engine shards them
// across goroutines and sums per-shard partial deltas, producing
// bit-identical results for any worker count.

import (
	"fmt"
	"sync"

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
// lifetime, never on which worker advances it or in what order.
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

// Engine advances independent campaign state. AdvanceRuns and SampleNodes
// are called from the simulation goroutine between discrete events; runs
// arrive in canonical (job-ID) order and nodes in cluster order, and every
// implementation must produce results identical to the serial engine.
type Engine interface {
	// AdvanceRuns extrapolates each run's counters to instant t.
	AdvanceRuns(runs []*jobRun, t simclock.Time)
	// SampleNodes reads each node's extended counters, differences them
	// against prev (updated in place), and returns the cluster-wide delta,
	// the sum over nodes. fates, when non-nil, carries each node's
	// sampling fate for the tick (fault injection); a nil fates samples
	// every node, exactly the pre-fault behaviour.
	SampleNodes(nodes []*node.Node, prev []hpm.Counts64, fates []faults.Fate) hpm.Delta
	// Close releases engine resources (worker goroutines).
	Close()
}

// NewEngine selects an engine: workers <= 1 is the serial reference
// implementation, anything larger a pool of that many goroutines.
func NewEngine(workers int) Engine {
	if workers <= 1 {
		return serialEngine{}
	}
	return newPoolEngine(workers)
}

// serialEngine is the single-threaded reference implementation.
type serialEngine struct{}

// AdvanceRuns is the serial extrapolation step.
//
//hpmlint:hotpath runs once per campaign tick; TestSerialTickAllocFree guards the same path
func (serialEngine) AdvanceRuns(runs []*jobRun, t simclock.Time) {
	w := telemetry.StartWatch()
	for _, r := range runs {
		r.advanceTo(t)
	}
	w.Record(telAdvanceNs)
	telAdvanced.Add(uint64(len(runs)))
}

// SampleNodes is the serial cron sweep.
//
//hpmlint:hotpath runs once per campaign tick; TestSerialTickAllocFree guards the same path
func (serialEngine) SampleNodes(nodes []*node.Node, prev []hpm.Counts64, fates []faults.Fate) hpm.Delta {
	w := telemetry.StartWatch()
	var total hpm.Delta
	for i, nd := range nodes {
		sampleNode(nd, prev, fates, i, &total)
	}
	w.Record(telSampleNs)
	telSampled.Add(uint64(len(nodes)))
	return total
}

func (serialEngine) Close() {}

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

// poolEngine shards advancement across the calling goroutine plus a
// fixed pool of workers−1 goroutines. Work is striped: shard s of k
// handles indices s, s+k, s+2k, ... — a deterministic assignment, though
// correctness never depends on it: jobs touch disjoint node sets and draw
// from disjoint RNG streams, and node sampling writes disjoint prev slots
// and folds its nodes' deltas into one partial sum per shard. The
// partials are added after the barrier; the counts are uint64, whose
// sums are the same in any order, so the tick delta is bit-identical to
// the serial engine's node-order fold.
type poolEngine struct {
	workers int
	tasks   chan int // shard indexes for the pool goroutines
	alive   sync.WaitGroup

	// The current sharded call: body and shards are set by runSharded
	// before it hands out shard indexes and cleared after the barrier, so
	// the channel sends and done.Wait order every access.
	body   func(shard, shards int)
	shards int
	done   sync.WaitGroup

	// busy[w] is worker w's busy time; worker 0 is the calling goroutine.
	busy []*telemetry.Counter

	// partial holds one delta per shard between the parallel sample and
	// the fold; each shard writes only its own slot.
	partial []hpm.Delta

	mu       sync.Mutex
	advanced uint64 // guarded by mu; job-advancement tasks executed
	sampled  uint64 // guarded by mu; node counter samples folded
}

func newPoolEngine(workers int) *poolEngine {
	e := &poolEngine{
		workers: workers,
		tasks:   make(chan int),
		busy:    make([]*telemetry.Counter, workers),
		partial: make([]hpm.Delta, workers),
	}
	for w := range e.busy {
		// Per-worker busy-time accumulators share names across engines of
		// the same width, so totals aggregate across campaigns in one
		// process — the per-worker view of pool utilisation.
		e.busy[w] = telEngine.Counter(fmt.Sprintf("worker%d.busy_ns", w))
	}
	for w := 1; w < workers; w++ {
		e.alive.Add(1)
		go func(busy *telemetry.Counter) {
			defer e.alive.Done()
			for s := range e.tasks {
				e.runShard(s, busy)
				e.done.Done()
			}
		}(e.busy[w])
	}
	return e
}

// runShard runs one shard of the current call, charging its time to busy.
func (e *poolEngine) runShard(s int, busy *telemetry.Counter) {
	sw := telemetry.StartWatch()
	e.body(s, e.shards)
	sw.AddTo(busy)
}

// runSharded executes body(shard, shards) for each of min(workers, n)
// shards, waits for all of them — the per-call barrier that keeps the
// simulation goroutine's view sequentially consistent — and returns the
// shard count. Shard 0 runs on the calling goroutine, which would
// otherwise sit idle at the barrier.
func (e *poolEngine) runSharded(n int, body func(shard, shards int)) int {
	if n == 0 {
		return 0
	}
	e.body, e.shards = body, min(e.workers, n)
	e.done.Add(e.shards - 1)
	for s := 1; s < e.shards; s++ {
		e.tasks <- s
	}
	e.runShard(0, e.busy[0])
	e.done.Wait()
	e.body = nil
	return e.shards
}

func (e *poolEngine) AdvanceRuns(runs []*jobRun, t simclock.Time) {
	w := telemetry.StartWatch()
	defer func() {
		w.Record(telAdvanceNs)
		telAdvanced.Add(uint64(len(runs)))
	}()
	e.runSharded(len(runs), func(shard, shards int) {
		var n uint64
		for i := shard; i < len(runs); i += shards {
			runs[i].advanceTo(t)
			n++
		}
		e.mu.Lock()
		e.advanced += n
		e.mu.Unlock()
	})
}

func (e *poolEngine) SampleNodes(nodes []*node.Node, prev []hpm.Counts64, fates []faults.Fate) hpm.Delta {
	w := telemetry.StartWatch()
	defer func() {
		w.Record(telSampleNs)
		telSampled.Add(uint64(len(nodes)))
	}()
	shards := e.runSharded(len(nodes), func(shard, shards int) {
		var d hpm.Delta
		var n uint64
		for i := shard; i < len(nodes); i += shards {
			sampleNode(nodes[i], prev, fates, i, &d)
			n++
		}
		e.partial[shard] = d
		e.mu.Lock()
		e.sampled += n
		e.mu.Unlock()
	})
	var total hpm.Delta
	for _, d := range e.partial[:shards] {
		total.Add(d)
	}
	return total
}

// Stats reports how much work the pool has executed (for tests and
// observability).
func (e *poolEngine) Stats() (advanced, sampled uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.advanced, e.sampled
}

// Close shuts the workers down. The engine must not be used afterwards.
func (e *poolEngine) Close() {
	close(e.tasks)
	e.alive.Wait()
}
