// Package loadtest is the load/soak harness for the sustained collection
// service: it stands up an in-process fleet of rs2hpm daemons in four
// variants — healthy, flaky (seeded transient read failures), dead
// (connection refused), and slow (delayed reads) — and drives a batched,
// backpressured collection Service against them. The harness is
// the proof layer for the service's contracts: after any run, Verify
// cross-foots the sample ledger exactly (captured + gapped + dropped +
// rejected == offered, gaps reconciled against the log) the way the
// faults coverage ledger cross-foots a campaign. Soak tests bracket a
// harness with leakcheck to prove Close returns every goroutine and
// socket.
package loadtest

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/rs2hpm"
)

// Spec sizes a harness fleet and its collection service. The zero value
// is useless; Normalize fills serviceable defaults.
type Spec struct {
	// Fleet shape: daemon counts per variant.
	Healthy int // daemons whose reads always succeed
	Flaky   int // daemons whose node reads fail transiently (seeded)
	Dead    int // daemons that refuse connections
	Slow    int // daemons whose node reads stall for SlowDelay

	// NodesPerDaemon is the node count each live daemon fronts (default 4).
	NodesPerDaemon int
	// FlakyRate is the per-read failure probability on flaky daemons
	// (default 0.5).
	FlakyRate float64
	// SlowDelay is the per-read stall on slow daemons (default 200µs).
	SlowDelay time.Duration
	// Seed keys every fault schedule; same seed, same failure pattern.
	Seed uint64
	// LegacyEvery pins every k-th live daemon to wire protocol v1 so the
	// service's batch path exercises the single-GET fallback (0 = all v2,
	// 1 = all v1).
	LegacyEvery int

	// Service shape, passed through to rs2hpm.ServiceConfig.
	Collectors int
	QueueDepth int
	Policy     rs2hpm.BackpressurePolicy
	SinkDelay  time.Duration // drain throttle, forces backpressure
	Retries    int
	// PoolSize is read by nothing: the service keeps one connection per
	// daemon.
	//
	// Deprecated: kept only because the repository benchmark (perfbench)
	// still assigns it; setting it has no effect.
	PoolSize int
	// Batch is read by nothing: every sweep goes through
	// Client.BatchCounters, MGET on v2 daemons and single-GET on v1.
	//
	// Deprecated: kept only because the repository benchmark (perfbench)
	// still assigns it; setting it has no effect.
	Batch bool
}

// Normalize fills defaults in place and returns the spec for chaining.
func (s Spec) Normalize() Spec {
	if s.NodesPerDaemon <= 0 {
		s.NodesPerDaemon = 4
	}
	if s.FlakyRate <= 0 {
		s.FlakyRate = 0.5
	}
	if s.SlowDelay <= 0 {
		s.SlowDelay = 200 * time.Microsecond
	}
	return s
}

// LiveDaemons counts the daemons that accept connections.
func (s Spec) LiveDaemons() int { return s.Healthy + s.Flaky + s.Slow }

// memSource is a cheap Source: an atomic instruction counter expanded
// into a counter snapshot on read. It keeps sweep cost in the wire and
// service layers, where the harness wants it, not in simulation.
type memSource struct {
	id int
	n  atomic.Uint64
}

func (m *memSource) NodeID() int { return m.id }

func (m *memSource) Counters() hpm.Counts64 {
	n := m.n.Load()
	var c hpm.Counts64
	c.Counts[hpm.User][hpm.EvCycles] = 2 * n
	c.Counts[hpm.User][hpm.EvFXU0Instr] = n
	c.Counts[hpm.User][hpm.EvFPU0Instr] = n / 2
	c.Counts[hpm.System][hpm.EvFXU0Instr] = n / 10
	return c
}

// slowSource stalls every read — the daemon that answers, eventually.
type slowSource struct {
	*memSource
	delay time.Duration
}

func (s *slowSource) TryCounters() (hpm.Counts64, error) {
	time.Sleep(s.delay)
	return s.Counters(), nil
}

// Harness is an assembled fleet plus the service collecting from it.
type Harness struct {
	Spec    Spec
	Log     *rs2hpm.SampleLog
	Service *rs2hpm.Service

	daemons []*rs2hpm.Daemon
	sources []*memSource
	addrs   []string
	sweeps  int
}

// New builds and starts the fleet, then the service. Close the harness
// to release everything.
func New(spec Spec) (*Harness, error) {
	spec = spec.Normalize()
	h := &Harness{Spec: spec, Log: rs2hpm.NewSampleLog()}

	nextNode := 0
	newNodes := func() []*memSource {
		srcs := make([]*memSource, spec.NodesPerDaemon)
		for i := range srcs {
			srcs[i] = &memSource{id: nextNode}
			nextNode++
		}
		h.sources = append(h.sources, srcs...)
		return srcs
	}
	startDaemon := func(build func([]*memSource) []rs2hpm.Source) error {
		srcs := newNodes()
		proto := rs2hpm.LatestProtocol
		if spec.LegacyEvery > 0 && len(h.daemons)%spec.LegacyEvery == spec.LegacyEvery-1 {
			proto = rs2hpm.ProtocolV1
		}
		d := rs2hpm.NewDaemonProtocol(proto, build(srcs)...)
		addr, err := d.Start("127.0.0.1:0")
		if err != nil {
			h.Close()
			return err
		}
		h.daemons = append(h.daemons, d)
		h.addrs = append(h.addrs, addr)
		return nil
	}

	for i := 0; i < spec.Healthy; i++ {
		err := startDaemon(func(srcs []*memSource) []rs2hpm.Source {
			out := make([]rs2hpm.Source, len(srcs))
			for j, s := range srcs {
				out[j] = s
			}
			return out
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Flaky; i++ {
		err := startDaemon(func(srcs []*memSource) []rs2hpm.Source {
			out := make([]rs2hpm.Source, len(srcs))
			for j, s := range srcs {
				out[j] = faults.NewUnreliableSource(s, spec.Seed, spec.FlakyRate)
			}
			return out
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Slow; i++ {
		err := startDaemon(func(srcs []*memSource) []rs2hpm.Source {
			out := make([]rs2hpm.Source, len(srcs))
			for j, s := range srcs {
				out[j] = &slowSource{memSource: s, delay: spec.SlowDelay}
			}
			return out
		})
		if err != nil {
			return nil, err
		}
	}
	// Dead daemons: bind a port, remember it, close the listener. Dials
	// get connection-refused — the crashed daemon of the fleet.
	for i := 0; i < spec.Dead; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		h.addrs = append(h.addrs, addr)
	}

	svc, err := rs2hpm.NewService(rs2hpm.ServiceConfig{
		Addrs:      h.addrs,
		Collectors: spec.Collectors,
		Retries:    spec.Retries,
		Queue: rs2hpm.IngestConfig{
			Depth:     spec.QueueDepth,
			Policy:    spec.Policy,
			SinkDelay: spec.SinkDelay,
		},
	}, h.Log)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Service = svc
	return h, nil
}

// Sweep advances every node's counters and runs one fleet-wide sweep.
// Sweep stamps are the sweep index in seconds, so per-node sample order
// is monotonic by construction. The returned error reports daemon-level
// failures (expected whenever the fleet has dead members).
func (h *Harness) Sweep() error {
	h.sweeps++
	for _, s := range h.sources {
		s.n.Add(10_000)
	}
	return h.Service.SweepOnce(float64(h.sweeps))
}

// SoakFor sweeps continuously until the wall budget is spent, returning
// the sweep count. At least one sweep always runs.
func (h *Harness) SoakFor(budget time.Duration) int {
	deadline := time.Now().Add(budget)
	n := 0
	for {
		h.Sweep() // daemon-level failures are the ledger's business
		n++
		if !time.Now().Before(deadline) {
			return n
		}
	}
}

// Close shuts down the service, then the daemons. Idempotent.
func (h *Harness) Close() {
	if h.Service != nil {
		h.Service.Close()
	}
	for _, d := range h.daemons {
		d.Close()
	}
	h.daemons = nil
}

// Ledger reads the service's sample accounting (exact after Close).
func (h *Harness) Ledger() rs2hpm.ServiceLedger { return h.Service.Ledger() }

// Verify cross-foots the ledger against itself, against the sample log,
// and against the fleet's scheduled workload. Call it after Close.
func (h *Harness) Verify() error {
	l := h.Ledger()
	if err := l.CrossFoot(); err != nil {
		return err
	}
	if got, want := uint64(h.Log.TotalSamples()), l.Captured; got != want {
		return fmt.Errorf("loadtest: log holds %d samples, ledger captured %d", got, want)
	}
	if got, want := uint64(h.Log.GapCount()), l.Gaps(); got != want {
		return fmt.Errorf("loadtest: log holds %d gap marks, ledger gapped+dropped+rejected %d", got, want)
	}
	// Every live daemon answers NODES on a loopback socket, so the
	// scheduled node reads are exactly sweeps x live nodes...
	scheduled := uint64(h.sweeps * h.Spec.LiveDaemons() * h.Spec.NodesPerDaemon)
	if l.Offered != scheduled {
		return fmt.Errorf("loadtest: offered %d node reads, scheduled %d", l.Offered, scheduled)
	}
	// ...and every dead daemon is a whole-sweep failure each time.
	wantFails := uint64(h.sweeps * h.Spec.Dead)
	if l.SweepFailures != wantFails {
		return fmt.Errorf("loadtest: %d sweep failures, want %d (dead daemons x sweeps)", l.SweepFailures, wantFails)
	}
	return nil
}
