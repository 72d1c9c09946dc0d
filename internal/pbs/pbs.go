// Package pbs reimplements the Portable Batch System as the paper's
// campaign used it: FIFO scheduling with backfill, dedicated node
// allocation (one job per node — the decision that allowed idle from
// message-passing and I/O delays), queue draining so >64-node jobs can
// eventually start, and prologue/epilogue hooks that capture each job's
// hardware counters on every allocated node (Saphir's per-job RS2HPM
// extension).
//
// PBS deliberately does NOT enforce memory limits: the paper found that
// node memory oversubscription by large jobs caused heavy paging, and
// notes that enforcing a no-paging restriction "would require considerable
// rewriting of the current batch system scheduler".
package pbs

import (
	"fmt"
	"sort"

	"repro/internal/hpm"
	"repro/internal/node"
	"repro/internal/simclock"
)

// State is a job's lifecycle position.
type State uint8

// Job states.
const (
	Queued State = iota
	Running
	Completed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	default:
		return "completed"
	}
}

// Spec describes a submitted job.
type Spec struct {
	User string
	// Nodes is the number of dedicated nodes requested.
	Nodes int
	// WallSeconds is how long the job will run once started.
	WallSeconds float64
	// Class names the workload class (kernel) the job runs; opaque to PBS.
	Class string
	// MemoryPerNodeBytes is the per-node working set. PBS records it but
	// does not enforce it — oversubscription pages, exactly as on the
	// real machine.
	MemoryPerNodeBytes uint64
	// PerfFactor is workload metadata (day-quality multiplier) carried
	// through to the executor; PBS does not interpret it. Zero means 1.
	PerfFactor float64
	// StreamID names the RNG substream driving the job's in-flight
	// randomness (performance jitter, stochastic counter rounding). The
	// workload generator assigns it so a job's counter stream depends
	// only on (campaign seed, StreamID), never on execution order; PBS
	// carries it opaquely, like PerfFactor.
	StreamID uint64
}

// Job is a tracked job.
type Job struct {
	ID   int
	Spec Spec

	State    State
	SubmitAt simclock.Time
	StartAt  simclock.Time
	EndAt    simclock.Time

	nodes []*node.Node
	// prologue counter baselines, one per allocated node.
	baseline []hpm.Counts64

	// Checkpoint/restart state (the extension the paper says the real
	// PBS lacked): remaining wall time, accumulated counter deltas from
	// completed segments, and the pending end event.
	remaining   float64
	segments    []hpm.Delta
	endEvent    *simclock.Event
	firstStart  simclock.Time
	wasStarted  bool
	Preemptions int
}

// Nodes returns the allocated nodes (nil until the job starts).
func (j *Job) Nodes() []*node.Node { return j.nodes }

// Record is the accounting record the epilogue writes.
type Record struct {
	JobID              int
	User               string
	Class              string
	NodesUsed          int
	NodeIDs            []int
	SubmitAt           simclock.Time
	StartAt            simclock.Time
	EndAt              simclock.Time
	WallSeconds        float64
	MemoryPerNodeBytes uint64
	// Preemptions counts checkpoint/restart cycles (0 without the
	// checkpointing extension).
	Preemptions int
	// PerNode holds the counter delta each allocated node accumulated
	// between prologue and epilogue.
	PerNode []hpm.Delta
}

// TotalDelta sums the per-node deltas.
func (r Record) TotalDelta() hpm.Delta {
	var d hpm.Delta
	for _, nd := range r.PerNode {
		d.Add(nd)
	}
	return d
}

// PerNodeRates reduces the job to average per-node user-mode rates.
func (r Record) PerNodeRates() hpm.Rates {
	if len(r.PerNode) == 0 || r.WallSeconds <= 0 {
		return hpm.Rates{}
	}
	total := r.TotalDelta()
	// Average across nodes: divide by scaling the interval.
	return hpm.UserRates(total, r.WallSeconds*float64(len(r.PerNode)))
}

// JobMflops reports the whole job's Mflops (all nodes together) — the
// quantity Figure 4 plots for 16-node jobs.
func (r Record) JobMflops() float64 {
	return r.PerNodeRates().MflopsAll * float64(len(r.PerNode))
}

// SystemUserFXURatio reports the job's aggregate system/user FXU ratio —
// the paging indicator of Figure 5.
func (r Record) SystemUserFXURatio() float64 {
	return hpm.SystemUserFXURatio(r.TotalDelta())
}

// Config tunes the scheduler.
type Config struct {
	// DrainThreshold: a queued job requesting more than this many nodes
	// stops backfill until it starts (the paper's "draining the queues";
	// 64 by default).
	DrainThreshold int
	// MinRecordWall drops records of jobs shorter than this many seconds
	// (the paper analyses jobs exceeding 600 s to filter interactive
	// sessions and benchmarking runs). Zero keeps everything.
	MinRecordWall float64
	// Checkpointing enables the extension the real system lacked ("System
	// administrators could not checkpoint MPI/PVM jobs and had to rely
	// upon draining the queues"): when a large job waits, running jobs
	// are checkpointed to free its nodes instead of holding the queue.
	Checkpointing bool
	// CheckpointSeconds is the save+restore overhead added to a preempted
	// job's remaining wall time (default 120 s: image the per-node memory
	// to disk and back).
	CheckpointSeconds float64
}

// Server is the batch system for one cluster.
type Server struct {
	cfg   Config
	clock *simclock.Clock
	nodes []*node.Node
	free  []int // free node indices (sorted for determinism)

	queue   []*Job
	running map[int]*Job
	nextID  int
	records []Record

	// Hooks. OnStart fires after the prologue captured baselines (also on
	// every restart after a checkpoint); OnEnd fires before the epilogue
	// reads final counters, so the campaign can flush any outstanding
	// counter extrapolation for the job. OnPreempt fires before a
	// checkpointed job's segment counters are captured.
	OnStart   func(j *Job)
	OnEnd     func(j *Job)
	OnPreempt func(j *Job)

	preemptions int

	busyNodeSeconds float64 // accumulated over completed jobs
	droppedRecords  int
}

// New builds a server over the given nodes. DrainThreshold defaults to 64.
func New(clock *simclock.Clock, nodes []*node.Node, cfg Config) *Server {
	if len(nodes) == 0 {
		panic("pbs: no nodes")
	}
	if cfg.DrainThreshold == 0 {
		cfg.DrainThreshold = 64
	}
	if cfg.CheckpointSeconds == 0 {
		cfg.CheckpointSeconds = 120
	}
	s := &Server{
		cfg:     cfg,
		clock:   clock,
		nodes:   nodes,
		running: make(map[int]*Job),
		nextID:  1,
	}
	for i := range nodes {
		s.free = append(s.free, i)
	}
	return s
}

// Submit enqueues a job and attempts to schedule. It returns the job ID or
// an error for impossible requests.
func (s *Server) Submit(spec Spec) (int, error) {
	if spec.Nodes <= 0 {
		return 0, fmt.Errorf("pbs: job requests %d nodes", spec.Nodes)
	}
	if spec.Nodes > len(s.nodes) {
		return 0, fmt.Errorf("pbs: job requests %d nodes, cluster has %d", spec.Nodes, len(s.nodes))
	}
	if spec.WallSeconds <= 0 {
		return 0, fmt.Errorf("pbs: job has non-positive wall time %v", spec.WallSeconds)
	}
	j := &Job{ID: s.nextID, Spec: spec, State: Queued, SubmitAt: s.clock.Now()}
	s.nextID++
	s.queue = append(s.queue, j)
	s.schedule()
	return j.ID, nil
}

// schedule starts every queued job that fits, in FIFO order with backfill,
// draining for large jobs.
func (s *Server) schedule() {
	i := 0
	for i < len(s.queue) {
		j := s.queue[i]
		if len(s.free) >= j.Spec.Nodes {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.start(j)
			continue // same index now holds the next job
		}
		if j.Spec.Nodes > s.cfg.DrainThreshold {
			if s.cfg.Checkpointing && s.preemptFor(j) {
				// checkpoint() prepended the victims, shifting indices;
				// locate j, start it on the freed nodes before anything
				// else (in particular before its own victims, which sit
				// at the queue head and would otherwise reclaim the
				// nodes and livelock), then rescan.
				for k, q := range s.queue {
					if q == j {
						s.queue = append(s.queue[:k], s.queue[k+1:]...)
						break
					}
				}
				s.start(j)
				i = 0
				continue
			}
			// Drain: hold all later jobs so the big one can accumulate
			// free nodes.
			return
		}
		i++ // backfill past the small job that does not fit
	}
}

// preemptFor checkpoints running jobs (most recently started first, so the
// longest-running work survives) until j fits. It reports whether enough
// nodes were freed.
func (s *Server) preemptFor(j *Job) bool {
	candidates := make([]*Job, 0, len(s.running))
	for _, r := range s.running {
		// Large jobs are never victims: preempting one large job for
		// another would ping-pong forever, and the point of the extension
		// is to clear *small* jobs out of a large job's way.
		if r.Spec.Nodes > s.cfg.DrainThreshold {
			continue
		}
		candidates = append(candidates, r)
	}
	// Most recent starters first; ties by descending ID for determinism.
	sort.Slice(candidates, func(a, b int) bool {
		if candidates[a].StartAt != candidates[b].StartAt {
			return candidates[a].StartAt > candidates[b].StartAt
		}
		return candidates[a].ID > candidates[b].ID
	})
	need := j.Spec.Nodes - len(s.free)
	var victims []*Job
	for _, v := range candidates {
		if need <= 0 {
			break
		}
		victims = append(victims, v)
		need -= len(v.nodes)
	}
	if need > 0 {
		return false // even preempting everything would not fit
	}
	for _, v := range victims {
		s.checkpoint(v)
	}
	return len(s.free) >= j.Spec.Nodes
}

// checkpoint suspends a running job: counters are captured into a segment,
// the memory image is written to each node's disk (DMA-visible), and the
// job returns to the head of the queue with its remaining wall time plus
// the save/restore overhead.
func (s *Server) checkpoint(j *Job) {
	if j.State != Running {
		return
	}
	if s.OnPreempt != nil {
		s.OnPreempt(j)
	}
	j.endEvent.Cancel()
	j.remaining = (j.EndAt - s.clock.Now()).Seconds() + s.cfg.CheckpointSeconds
	for i, nd := range j.nodes {
		j.segments = append(j.segments, hpm.Sub64(j.baseline[i], nd.Counters()))
		// Image the job's memory to local disk: memory-to-device DMA.
		nd.DiskIO(0, j.Spec.MemoryPerNodeBytes)
	}
	s.busyNodeSeconds += float64(float64(len(j.nodes)) * (s.clock.Now() - j.StartAt).Seconds())
	s.freeNodes(j)
	j.nodes = nil
	j.baseline = nil
	j.State = Queued
	j.Preemptions++
	s.preemptions++
	delete(s.running, j.ID)
	// Back to the head: a checkpointed job resumes as soon as room exists.
	s.queue = append([]*Job{j}, s.queue...)
}

// Preemptions reports total checkpoint events.
func (s *Server) Preemptions() int { return s.preemptions }

// freeNodes returns a job's nodes to the free pool (sorted).
func (s *Server) freeNodes(j *Job) {
	for _, nd := range j.nodes {
		for i := range s.nodes {
			if s.nodes[i] == nd {
				s.free = append(s.free, i)
				break
			}
		}
	}
	sort.Ints(s.free)
}

// start allocates nodes, runs the prologue, and schedules completion. A
// checkpointed job restarts here with its remaining wall time: the restore
// reads the memory image back from disk.
func (s *Server) start(j *Job) {
	n := j.Spec.Nodes
	alloc := s.free[:n]
	s.free = append([]int(nil), s.free[n:]...)
	j.nodes = make([]*node.Node, n)
	j.baseline = make([]hpm.Counts64, n)
	restore := j.wasStarted
	for i, idx := range alloc {
		j.nodes[i] = s.nodes[idx]
		if restore {
			// Restore: read the checkpoint image (device-to-memory DMA).
			s.nodes[idx].DiskIO(j.Spec.MemoryPerNodeBytes, 0)
		}
		// Prologue: capture the counter baseline on each node.
		j.baseline[i] = s.nodes[idx].Counters()
	}
	wall := j.Spec.WallSeconds
	if restore {
		wall = j.remaining
	} else {
		j.firstStart = s.clock.Now()
	}
	j.wasStarted = true
	j.State = Running
	j.StartAt = s.clock.Now()
	j.EndAt = j.StartAt + simclock.Time(wall)
	s.running[j.ID] = j

	if s.OnStart != nil {
		s.OnStart(j)
	}
	j.endEvent = s.clock.At(j.EndAt, func() { s.finish(j) })
}

// finish runs the epilogue, frees nodes, and reschedules the queue.
func (s *Server) finish(j *Job) {
	if s.OnEnd != nil {
		s.OnEnd(j)
	}
	startAt := j.StartAt
	if j.Preemptions > 0 {
		startAt = j.firstStart
	}
	rec := Record{
		JobID:              j.ID,
		User:               j.Spec.User,
		Class:              j.Spec.Class,
		NodesUsed:          len(j.nodes),
		SubmitAt:           j.SubmitAt,
		StartAt:            startAt,
		EndAt:              s.clock.Now(),
		WallSeconds:        j.Spec.WallSeconds,
		MemoryPerNodeBytes: j.Spec.MemoryPerNodeBytes,
		Preemptions:        j.Preemptions,
	}
	for i, nd := range j.nodes {
		rec.NodeIDs = append(rec.NodeIDs, nd.ID())
		rec.PerNode = append(rec.PerNode, hpm.Sub64(j.baseline[i], nd.Counters()))
	}
	// Fold in counter segments captured at checkpoints. Segment deltas are
	// merged pairwise into the final per-node deltas (node sets across
	// segments may differ; the aggregate statistics the records feed use
	// totals, which merging preserves).
	for i, seg := range j.segments {
		if i < len(rec.PerNode) {
			rec.PerNode[i].Add(seg)
		} else {
			rec.PerNode = append(rec.PerNode, seg)
		}
	}
	j.State = Completed
	delete(s.running, j.ID)
	s.busyNodeSeconds += float64(float64(len(j.nodes)) * (s.clock.Now() - j.StartAt).Seconds())
	s.freeNodes(j)

	if rec.WallSeconds >= s.cfg.MinRecordWall {
		s.records = append(s.records, rec)
	} else {
		s.droppedRecords++
	}
	s.schedule()
}

// Records returns the accounting records written so far (jobs shorter than
// MinRecordWall are excluded, as in the paper's batch analysis).
func (s *Server) Records() []Record {
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// DroppedRecords reports jobs excluded by the MinRecordWall filter.
func (s *Server) DroppedRecords() int { return s.droppedRecords }

// QueueLength reports jobs waiting.
func (s *Server) QueueLength() int { return len(s.queue) }

// RunningCount reports jobs executing.
func (s *Server) RunningCount() int { return len(s.running) }

// FreeNodes reports unallocated nodes.
func (s *Server) FreeNodes() int { return len(s.free) }

// NodeFree reports whether the node at cluster index idx is currently
// unallocated. The fault layer consults it before applying a counter
// reset: resetting under a running job would corrupt its epilogue
// baseline.
func (s *Server) NodeFree(idx int) bool {
	for _, f := range s.free {
		if f == idx {
			return true
		}
	}
	return false
}

// BusyNodes reports allocated nodes.
func (s *Server) BusyNodes() int { return len(s.nodes) - len(s.free) }

// BusyNodeSeconds reports accumulated node-busy time: completed jobs plus
// the elapsed portion of running ones. Utilisation over a window is this
// quantity differenced and divided by nodes*seconds.
func (s *Server) BusyNodeSeconds() float64 {
	total := s.busyNodeSeconds
	now := s.clock.Now()
	// Sum in job-ID order: float addition is not associative, and map
	// iteration order would make campaign results non-deterministic.
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		j := s.running[id]
		total += float64(float64(len(j.nodes)) * (now - j.StartAt).Seconds())
	}
	return total
}

// NodeCount reports the cluster size.
func (s *Server) NodeCount() int { return len(s.nodes) }
