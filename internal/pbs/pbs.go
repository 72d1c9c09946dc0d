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

	SubmitAt simclock.Time
	StartAt  simclock.Time
	EndAt    simclock.Time

	nodes []*node.Node
	idx   []int // the nodes' cluster indices, which key Server.baseline
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
	// Preemptions is always 0: the paper's PBS could not checkpoint a
	// job, so a job runs once, on the nodes it started on. The field
	// stays because the result database and the CSV carry it.
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
}

// Server is the batch system for one cluster.
type Server struct {
	cfg   Config
	clock *simclock.Clock
	nodes []*node.Node
	free  []int // free node indices (sorted for determinism)
	// baseline[i] is node i's prologue counter capture. Nodes are
	// dedicated, so the job running on node i owns slot i.
	baseline []hpm.Counts64

	queue   []*Job
	running map[int]*Job
	nextID  int
	records []Record

	// Hooks. OnStart fires after the prologue captured baselines; OnEnd
	// fires before the epilogue reads final counters, so the campaign can
	// flush any outstanding counter extrapolation for the job.
	OnStart func(j *Job)
	OnEnd   func(j *Job)

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
	s := &Server{
		cfg:      cfg,
		clock:    clock,
		nodes:    nodes,
		baseline: make([]hpm.Counts64, len(nodes)),
		running:  make(map[int]*Job),
		nextID:   1,
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
	j := &Job{ID: s.nextID, Spec: spec, SubmitAt: s.clock.Now()}
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
			// Drain: hold all later jobs so the big one can accumulate
			// free nodes.
			return
		}
		i++ // backfill past the small job that does not fit
	}
}

// freeNodes returns a job's nodes to the free pool (sorted).
func (s *Server) freeNodes(j *Job) {
	s.free = append(s.free, j.idx...)
	sort.Ints(s.free)
}

// start allocates nodes, runs the prologue, and schedules completion.
func (s *Server) start(j *Job) {
	n := j.Spec.Nodes
	j.idx = s.free[:n:n]
	s.free = append([]int(nil), s.free[n:]...)
	j.nodes = make([]*node.Node, n)
	for i, idx := range j.idx {
		j.nodes[i] = s.nodes[idx]
		// Prologue: capture the counter baseline on each node.
		s.baseline[idx] = s.nodes[idx].Counters()
	}
	j.StartAt = s.clock.Now()
	j.EndAt = j.StartAt + simclock.Time(j.Spec.WallSeconds)
	s.running[j.ID] = j

	if s.OnStart != nil {
		s.OnStart(j)
	}
	s.clock.At(j.EndAt, func() { s.finish(j) })
}

// finish runs the epilogue, frees nodes, and reschedules the queue.
func (s *Server) finish(j *Job) {
	if s.OnEnd != nil {
		s.OnEnd(j)
	}
	rec := Record{
		JobID:              j.ID,
		User:               j.Spec.User,
		Class:              j.Spec.Class,
		NodesUsed:          len(j.nodes),
		NodeIDs:            make([]int, len(j.nodes)),
		SubmitAt:           j.SubmitAt,
		StartAt:            j.StartAt,
		EndAt:              s.clock.Now(),
		WallSeconds:        j.Spec.WallSeconds,
		MemoryPerNodeBytes: j.Spec.MemoryPerNodeBytes,
		PerNode:            make([]hpm.Delta, len(j.nodes)),
	}
	for i, nd := range j.nodes {
		rec.NodeIDs[i] = nd.ID()
		rec.PerNode[i] = hpm.Sub64(s.baseline[j.idx[i]], nd.Counters())
	}
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
