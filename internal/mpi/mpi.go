// Package mpi is the message-passing substrate the NAS workload codes were
// ported to (the paper: "made portable by employing PVM and/or MPI"). It
// runs one goroutine per rank, each with its own virtual clock, over the
// simulated High Performance Switch:
//
//   - Send is asynchronous (the style Cui and Street used for the
//     best-performing 28-node job): it deposits the message with an
//     arrival timestamp and the sender continues;
//   - Recv blocks until the message exists, then advances the receiver's
//     clock to max(own time, arrival) — waiting is what separates a rank's
//     compute rate from its job-level rate;
//   - Barrier and Allreduce synchronise all clocks, modelling the
//     synchronous codes the paper blames for some >64-node jobs.
//
// Every message is accounted as adapter DMA traffic on both endpoint
// nodes, so message passing appears in the SCU dma_read/dma_write counters
// exactly as RS2HPM saw it.
package mpi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/hps"
	"repro/internal/isa"
	"repro/internal/node"
	"repro/internal/units"
)

type srcDst struct{ src, dst int }

type message struct {
	bytes   uint64
	arrival float64
}

// World is a communicator over a set of ranks. Create one with NewWorld,
// then call Run with the per-rank program.
type World struct {
	net   *hps.Network
	nodes []*node.Node

	mu   sync.Mutex
	cond *sync.Cond // signals queue/barrier state changes; created in NewWorld

	queues      map[srcDst][]message // guarded by mu
	totalQueued int                  // guarded by mu
	waiting     int                  // guarded by mu
	size        int                  // immutable after NewWorld

	barrierCount int     // guarded by mu
	barrierEpoch uint64  // guarded by mu
	barrierTime  float64 // guarded by mu
	releaseTime  float64 // guarded by mu; barrierTime snapshot at the last release
	finished     int     // guarded by mu; ranks whose body has returned

	lastRanks []*Rank
}

// NewWorld builds a communicator whose rank i runs on nodes[i]. The nodes
// are attached to the network here; do not attach them beforehand.
func NewWorld(net *hps.Network, nodes []*node.Node) *World {
	if len(nodes) == 0 {
		panic("mpi: NewWorld with no nodes")
	}
	for _, n := range nodes {
		net.Attach(n)
	}
	w := &World{
		net:    net,
		nodes:  nodes,
		queues: make(map[srcDst][]message),
		size:   len(nodes),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Ranks returns the rank objects from the most recent Run (nil before any
// Run), for reading final virtual times and wait fractions.
func (w *World) Ranks() []*Rank { return w.lastRanks }

// deadlockedLocked reports whether every rank is blocked with nothing in
// flight. Callers hold w.mu and have already counted themselves in
// w.waiting or w.barrierCount.
func (w *World) deadlockedLocked() bool {
	return w.waiting+w.barrierCount+w.finished >= w.size &&
		w.totalQueued == 0 &&
		w.barrierCount < w.size
}

// Rank is one process of the parallel job. All methods must be called from
// the rank's own goroutine (the one Run starts).
type Rank struct {
	world *World
	id    int
	node  *node.Node

	now  float64 // virtual seconds since job start
	wait float64 // cumulative blocked time
	sent uint64  // bytes sent
	msgs uint64  // messages sent
}

// ID reports the rank number.
func (r *Rank) ID() int { return r.id }

// Node returns the node this rank runs on.
func (r *Rank) Node() *node.Node { return r.node }

// Now reports the rank's virtual time in seconds.
func (r *Rank) Now() float64 { return r.now }

// WaitSeconds reports cumulative time spent blocked in communication.
func (r *Rank) WaitSeconds() float64 { return r.wait }

// BytesSent reports cumulative bytes this rank has sent.
func (r *Rank) BytesSent() uint64 { return r.sent }

// MessagesSent reports how many messages this rank has sent.
func (r *Rank) MessagesSent() uint64 { return r.msgs }

// Compute advances the rank's clock by a pure-time computation phase.
func (r *Rank) Compute(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("mpi: negative compute time %v", seconds))
	}
	r.now += seconds
}

// ComputeStream executes instructions on the rank's node CPU and advances
// the virtual clock by the simulated elapsed time.
func (r *Rank) ComputeStream(s isa.Stream, maxInstrs uint64) {
	st := r.node.RunLimited(s, maxInstrs)
	r.now += float64(st.Cycles) / units.ClockHz
}

// Send transmits bytes to rank dst asynchronously. The message arrives at
// the destination at now + latency + bytes/bandwidth.
func (r *Rank) Send(dst int, bytes uint64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if dst == r.id {
		panic("mpi: send to self")
	}
	sec, err := r.world.net.Deliver(r.node.NodeID(), r.world.nodes[dst].NodeID(), bytes)
	if err != nil {
		panic(fmt.Sprintf("mpi: deliver: %v", err))
	}
	arrival := r.now + sec
	w := r.world
	w.mu.Lock()
	key := srcDst{r.id, dst}
	w.queues[key] = append(w.queues[key], message{bytes: bytes, arrival: arrival})
	w.totalQueued++
	w.mu.Unlock()
	w.cond.Broadcast()
	r.sent += bytes
	r.msgs++
	// The sender pays a software injection overhead.
	r.now += float64(r.world.net.Config().LatencySeconds / 2)
}

// Recv blocks until a message from src is available and returns its size.
// The rank's clock advances to the arrival time if the message was still
// in flight. A genuine deadlock (every rank blocked, nothing in any
// queue) panics rather than hanging the test suite.
func (r *Rank) Recv(src int) uint64 {
	if src < 0 || src >= r.world.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	w := r.world
	key := srcDst{src, r.id}
	w.mu.Lock()
	for len(w.queues[key]) == 0 {
		w.waiting++
		if w.deadlockedLocked() {
			w.waiting--
			w.mu.Unlock()
			w.cond.Broadcast()
			panic(fmt.Sprintf("mpi: deadlock: rank %d blocked in Recv(%d) with all ranks idle", r.id, src))
		}
		w.cond.Wait()
		w.waiting--
	}
	m := w.queues[key][0]
	w.queues[key] = w.queues[key][1:]
	w.totalQueued--
	w.mu.Unlock()

	if m.arrival > r.now {
		r.wait += m.arrival - r.now
		r.node.AddIOWait(m.arrival - r.now)
		r.now = m.arrival
	}
	return m.bytes
}

// SendRecv performs the halo-exchange idiom: send to `to`, then receive
// from `from`. Returns the received byte count.
func (r *Rank) SendRecv(to int, bytes uint64, from int) uint64 {
	r.Send(to, bytes)
	return r.Recv(from)
}

// Barrier blocks until every rank arrives; all leave at the latest
// arrival time plus one switch latency.
func (r *Rank) Barrier() {
	w := r.world
	w.mu.Lock()
	epoch := w.barrierEpoch
	if r.now > w.barrierTime {
		w.barrierTime = r.now
	}
	w.barrierCount++
	if w.barrierCount == w.size {
		w.barrierCount = 0
		w.barrierEpoch++
		w.releaseTime = w.barrierTime
		w.barrierTime = 0
		w.cond.Broadcast()
	} else {
		for w.barrierEpoch == epoch {
			if w.deadlockedLocked() {
				w.barrierCount--
				w.mu.Unlock()
				w.cond.Broadcast()
				panic(fmt.Sprintf("mpi: deadlock: rank %d blocked in Barrier", r.id))
			}
			w.cond.Wait()
		}
	}
	exit := w.releaseTime + w.net.Config().LatencySeconds
	w.mu.Unlock()
	if exit > r.now {
		r.wait += exit - r.now
		r.node.AddIOWait(exit - r.now)
		r.now = exit
	}
}

// Allreduce synchronises all ranks and charges the butterfly exchange
// cost: 2*ceil(log2 p) message steps of the given payload.
func (r *Rank) Allreduce(bytes uint64) {
	r.Barrier()
	if r.world.size == 1 {
		return
	}
	steps := 2 * math.Ceil(math.Log2(float64(r.world.size)))
	r.now += float64(steps * r.world.net.TransferTime(bytes))
}

// Run starts one goroutine per rank executing body and waits for all to
// finish. A panic in any rank is re-raised here with its rank number.
func (w *World) Run(body func(r *Rank)) {
	w.mu.Lock()
	w.finished = 0
	w.mu.Unlock()
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	ranks := make([]*Rank, w.size)
	for i := 0; i < w.size; i++ {
		ranks[i] = &Rank{world: w, id: i, node: w.nodes[i]}
	}
	for i := 0; i < w.size; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[r.id] = p
				}
				w.mu.Lock()
				w.finished++
				w.mu.Unlock()
				w.cond.Broadcast()
			}()
			body(r)
		}(ranks[i])
	}
	wg.Wait()
	w.lastRanks = ranks
	for id, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d: %v", id, p))
		}
	}
}
