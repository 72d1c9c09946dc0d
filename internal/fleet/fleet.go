// Package fleet shards a multi-cluster campaign across goroutines and
// folds the per-cluster reductions through a canonical-order merge
// tree into one fleet-wide Result — the paper's per-day cluster
// reduction applied to a whole fleet of SP2-class machines.
//
// The layering sits above the staged engine: each fleet member is an
// ordinary (Config, Mix) campaign whose seed comes from
// workload.ClusterSeed, each shard owns a stripe of clusters (shard s
// runs clusters s, s+Shards, ...) and runs them one after another, each
// on the serial campaign engine, and a frontier merger streams merged
// fleet days to the caller's reducers the moment every cluster has closed
// that day — analysis consumes a fleet online exactly as it consumes one
// machine.
//
// The determinism contract carries over unchanged: a cluster's Result is
// a pure function of (Config, Mix, seed), the merge folds clusters in
// ascending index (never in completion order), and therefore the merged
// Result is bit-identical for every shard count, every
// profile-measurement width, and across a kill/resume cycle. Shards are
// a campaign's only parallel axis: one tick of a 144-node cluster is too
// little work to split across goroutines. Checkpoints (internal/trace)
// record the completed-cluster frontier; anything in flight at a kill is
// simply re-run from its own day 0 on resume and lands on the same bits.
package fleet

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Member is one cluster of the fleet: a complete campaign definition,
// the same (Config, Mix) pair a campaign trace records. Derive
// Config.Seed with workload.ClusterSeed so clusters draw from disjoint
// substream namespaces.
type Member = replay.Def

// Options shape a fleet run. The zero value runs everything in one shard
// with no checkpointing.
type Options struct {
	// Shards is the number of cluster-level workers; values below 1 mean
	// one shard. Shards trades wall clock only — the merged Result is
	// bit-identical for every value.
	Shards int
	// Checkpoint, when non-empty, is the path of the checkpoint journal
	// (internal/trace; ".gz" compresses). A fresh run replaces any file
	// there with the journal's header before a cluster starts, then
	// appends and fsyncs each cluster as it completes.
	Checkpoint string
	// Resume loads Checkpoint before running and skips the clusters it
	// records as complete. The checkpoint must match the fleet definition
	// (FleetID) or Run fails.
	Resume bool
	// HaltAfter, when positive, stops the run after that many cluster
	// completions in this process: no new clusters start, the checkpoint
	// holds the completed frontier, and Run returns ErrHalted. It requires
	// Checkpoint, and exists to force kill/resume cycles in tests and
	// smoke targets.
	HaltAfter int
	// RecordTo, when non-empty, records every cluster's generated plans
	// (and resolved fault schedules) to a campaign trace at this path
	// (internal/replay; always gzip). A trace must be complete to be
	// useful, so RecordTo rejects Resume, HaltAfter, and ReplayFrom —
	// each would leave some cluster's days ungenerated — and the trace
	// file appears only if the whole run succeeds.
	RecordTo string
	// ReplayFrom, when non-empty, feeds every cluster's plans from the
	// campaign trace at this path instead of the generators, bypassing
	// generation. The trace must match the fleet definition (config
	// fingerprint) or Run fails before any cluster starts.
	ReplayFrom string
}

// ErrHalted reports a run stopped by Options.HaltAfter: progress is in
// the checkpoint, and the campaign is resumable, but there is no merged
// Result yet.
var ErrHalted = errors.New("fleet: halted by HaltAfter; campaign checkpointed, not complete")

// run is the shared state of one fleet execution.
type run struct {
	members []Member
	opts    Options
	// id binds checkpoints to the fleet definition: the trace
	// fingerprint of the members. The spec label is excluded from
	// Config's JSON form, and the shard count is not part of a member,
	// so a resume may change either without invalidating the checkpoint.
	id      uint64
	maxDays int

	mu sync.Mutex
	// parts accumulates each cluster's reduction as its days close;
	// guarded by mu.
	parts []workload.Result
	// done marks clusters whose Finish arrived (or was restored); guarded
	// by mu.
	done []bool
	// next is the first fleet day not yet streamed to the sinks; guarded
	// by mu.
	next int
	// completions counts clusters finished in this process (restored ones
	// excluded), the HaltAfter trigger; guarded by mu.
	completions int
	// halt stops shards from starting new clusters; guarded by mu.
	halt bool
	// cpErr is the first checkpoint-append failure; once set, no new
	// cluster starts and Run reports it. Guarded by mu.
	cpErr error
	// sinks receive the merged day stream; called only under mu, so
	// reducers need no locking of their own. The tail sink is the
	// internal ResultReducer the merged Result comes from.
	sinks workload.TeeReducer

	// rec/rp are the trace recorder and replayer; nil unless
	// RecordTo/ReplayFrom is set. Both are internally synchronized, so
	// shards use them without holding mu.
	rec *replay.Recorder
	rp  *replay.Replayer
	// journal is the checkpoint journal; nil without Checkpoint. It has
	// its own lock, so shards append to it without holding mu.
	journal *trace.Journal
}

// Run executes the fleet campaign and returns the merged Result. The
// sinks receive the merged reduction stream — fleet day d the moment
// every cluster has closed its day d, then the merged Final — so a
// streaming analysis rides along exactly as it does on one campaign.
func Run(members []Member, opts Options, sinks ...workload.Reducer) (workload.Result, error) {
	if len(members) == 0 {
		return workload.Result{}, errors.New("fleet: no members")
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Resume && opts.Checkpoint == "" {
		return workload.Result{}, errors.New("fleet: Resume requires a Checkpoint path")
	}
	if opts.HaltAfter > 0 && opts.Checkpoint == "" {
		return workload.Result{}, errors.New("fleet: HaltAfter requires a Checkpoint path")
	}
	if opts.RecordTo != "" {
		switch {
		case opts.ReplayFrom != "":
			return workload.Result{}, errors.New("fleet: RecordTo with ReplayFrom (a replay would only copy the trace)")
		case opts.Resume:
			return workload.Result{}, errors.New("fleet: RecordTo with Resume (restored clusters never regenerate, the trace would be incomplete)")
		case opts.HaltAfter > 0:
			return workload.Result{}, errors.New("fleet: RecordTo with HaltAfter (a halted run records an incomplete trace)")
		}
	}

	var rr workload.ResultReducer
	r := &run{
		members: members,
		opts:    opts,
		id:      replay.Fingerprint(members),
		parts:   make([]workload.Result, len(members)),
		done:    make([]bool, len(members)),
		sinks:   append(workload.TeeReducer(sinks), &rr),
	}
	for i := range members {
		if members[i].Config.Days > r.maxDays {
			r.maxDays = members[i].Config.Days
		}
	}

	if opts.RecordTo != "" {
		rec, err := replay.Create(opts.RecordTo, replay.HeaderFor(members))
		if err != nil {
			return workload.Result{}, fmt.Errorf("fleet: %w", err)
		}
		r.rec = rec
		defer rec.Abort() // no-op once Close succeeds; discards on failure
	}
	if opts.ReplayFrom != "" {
		rp, err := replay.OpenFile(opts.ReplayFrom)
		if err != nil {
			return workload.Result{}, fmt.Errorf("fleet: %w", err)
		}
		if err := rp.Validate(members); err != nil {
			return workload.Result{}, fmt.Errorf("fleet: %w", err)
		}
		r.rp = rp
	}

	if opts.Checkpoint != "" {
		if err := r.openJournal(); err != nil {
			return workload.Result{}, err
		}
	}
	// Stream any days already satisfied by restored clusters: a fully
	// restored fleet must still deliver the whole day stream.
	r.mu.Lock()
	r.advanceLocked()
	r.mu.Unlock()

	busy := shardBusyCounters(opts.Shards)
	var wg sync.WaitGroup
	for s := 0; s < opts.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r.shardLoop(s, busy[s])
		}(s)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal != nil {
		if err := r.journal.Close(); err != nil && r.cpErr == nil {
			r.cpErr = fmt.Errorf("fleet: checkpoint: %w", err)
		}
	}
	if r.cpErr != nil {
		return workload.Result{}, r.cpErr
	}
	if r.halt {
		return workload.Result{}, ErrHalted
	}
	for c := range r.done {
		if !r.done[c] {
			return workload.Result{}, fmt.Errorf("fleet: cluster %d never finished", c)
		}
	}
	if r.rec != nil {
		if err := r.rec.Close(); err != nil {
			return workload.Result{}, fmt.Errorf("fleet: %w", err)
		}
	}
	r.sinks.Finish(workload.MergeFinal(r.parts))
	return rr.Result(), nil
}

// shardLoop runs the shard's stripe of clusters in ascending index.
func (r *run) shardLoop(shard int, busy *telemetry.Counter) {
	for c := shard; c < len(r.members); c += r.opts.Shards {
		r.mu.Lock()
		skip := r.done[c]
		stop := r.halt
		r.mu.Unlock()
		if stop {
			return
		}
		if skip {
			continue
		}
		w := telemetry.StartWatch()
		campaign := workload.NewCampaign(r.members[c].Config, r.members[c].Mix)
		// The record/replay seam: tee the cluster's generate stage into
		// the trace, or substitute the trace for it (plans and fault
		// schedules both). Simulate and reduce run unchanged either way.
		if r.rec != nil {
			campaign.SetGenerator(r.rec.Tap(c, r.members[c].Config,
				workload.NewGenerator(r.members[c].Config, r.members[c].Mix)))
		}
		if r.rp != nil {
			src := r.rp.Source(c)
			campaign.SetGenerator(src)
			campaign.SetFaultPlanner(src)
		}
		campaign.RunInto(&clusterTap{r: r, cluster: c})
		w.Record(telClusterNs)
		w.AddTo(busy)
		telClustersRun.Inc()
	}
}

// clusterTap is the per-cluster reducer: it forwards the cluster's day
// stream into the shared merge frontier and records its Final.
type clusterTap struct {
	r       *run
	cluster int
}

// ReduceDay appends the cluster's closed day and advances the fleet
// frontier.
func (t *clusterTap) ReduceDay(d workload.Day) {
	r := t.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parts[t.cluster].Days = append(r.parts[t.cluster].Days, d)
	r.advanceLocked()
}

// Finish records the cluster's end-of-campaign aggregates, appends the
// completed cluster to the checkpoint journal, and arms the halt if
// HaltAfter is reached.
func (t *clusterTap) Finish(f workload.Final) {
	r := t.r
	r.mu.Lock()
	p := &r.parts[t.cluster]
	p.Config = f.Config
	p.Records = f.Records
	p.MaxGflops15min = f.MaxGflops15min
	p.DroppedRecords = f.DroppedRecords
	p.Coverage = f.Coverage
	res := *p
	r.mu.Unlock()

	// The cluster's Result no longer changes, so it is encoded and
	// appended without mu while other shards keep merging days. The
	// cluster counts as done only once its segment is durable.
	err := r.checkpoint(t.cluster, res)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.cpErr == nil {
			r.cpErr = err
		}
		r.halt = true // no point finishing clusters that can never persist
		return
	}
	r.done[t.cluster] = true
	r.completions++
	if r.opts.HaltAfter > 0 && r.completions >= r.opts.HaltAfter {
		r.halt = true
	}
}

// checkpoint appends a completed cluster to the journal, if there is
// one.
func (r *run) checkpoint(cluster int, res workload.Result) error {
	if r.journal == nil {
		return nil
	}
	w := telemetry.StartWatch()
	if err := r.journal.Append(cluster, res); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	w.Record(telCheckpointNs)
	telCheckpoints.Inc()
	return nil
}

// advanceLocked streams every fleet day whose inputs are all present:
// day d is ready once each cluster whose window covers d has closed it.
// The fold walks clusters in ascending index — the canonical order that
// makes the float sums independent of shard count and completion order.
// Caller holds mu.
func (r *run) advanceLocked() {
	for ; r.next < r.maxDays; r.next++ {
		d := r.next
		for c := range r.members {
			if r.members[c].Config.Days > d && len(r.parts[c].Days) <= d {
				return
			}
		}
		day := workload.Day{Index: d}
		for c := range r.parts {
			if d < len(r.parts[c].Days) {
				day.Merge(r.parts[c].Days[d])
			}
		}
		r.sinks.ReduceDay(day)
		telDaysMerged.Inc()
	}
}

// openJournal starts a fresh checkpoint journal, or on Resume reopens
// the existing one and restores its completed clusters. Either way it
// runs before any cluster starts, so an unwritable path or a bad
// checkpoint fails before wall clock is spent on work that could never
// persist.
func (r *run) openJournal() error {
	if !r.opts.Resume {
		j, err := trace.CreateJournal(r.opts.Checkpoint, r.id, len(r.members))
		if err != nil {
			return fmt.Errorf("fleet: checkpoint: %w", err)
		}
		r.journal = j
		return nil
	}
	cp, j, err := trace.OpenJournal(r.opts.Checkpoint)
	if err != nil {
		return fmt.Errorf("fleet: resume: %w", err)
	}
	if err := r.restore(cp); err != nil {
		j.Close()
		return err
	}
	r.journal = j
	return nil
}

// restore marks the checkpoint's completed clusters done. It runs before
// any shard goroutine exists, but takes the lock anyway so the parts/done
// guard invariant holds everywhere they are written.
func (r *run) restore(cp trace.FleetCheckpoint) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cp.FleetID != r.id {
		return fmt.Errorf("fleet: resume: checkpoint is for fleet %016x, this fleet is %016x (definition changed?)", cp.FleetID, r.id)
	}
	if cp.Clusters != len(r.members) {
		return fmt.Errorf("fleet: resume: checkpoint has %d clusters, fleet has %d", cp.Clusters, len(r.members))
	}
	for _, d := range cp.Done {
		if got, want := len(d.Result.Days), r.members[d.Cluster].Config.Days; got != want {
			return fmt.Errorf("fleet: resume: cluster %d checkpointed with %d days, config says %d", d.Cluster, got, want)
		}
		// Each member draws from its own seed, so a segment filed under
		// the wrong cluster is caught here rather than merged.
		if got, want := d.Result.Config, r.members[d.Cluster].Config; got.Seed != want.Seed || got.Nodes != want.Nodes {
			return fmt.Errorf("fleet: resume: %w: cluster %d checkpointed with seed %d on %d nodes, fleet member has seed %d on %d",
				trace.ErrCorrupt, d.Cluster, got.Seed, got.Nodes, want.Seed, want.Nodes)
		}
		r.parts[d.Cluster] = d.Result
		r.done[d.Cluster] = true
		telClustersRestored.Inc()
	}
	return nil
}
