// Package node assembles one SP2 node: a POWER2 CPU with its hardware
// performance monitor, at least 128 MB of memory, and a switch adapter.
// The node is where architectural simulation (instruction streams through
// the CPU) and campaign-level accounting (DMA traffic, monitor snapshots
// for the RS2HPM daemon) meet.
package node

import (
	"sync"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/power2"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/units"
)

// Config describes a node.
type Config struct {
	// ID is the cluster-wide node number (0-based).
	ID int
	// MemoryBytes is physical memory; zero selects the SP2's 128 MB.
	MemoryBytes uint64
	// CPU overrides parts of the processor configuration; MemoryBytes
	// above takes precedence for the paging model.
	CPU power2.Config
}

// Node is one SP2 node. The mutex guards the monitor against concurrent
// access from the RS2HPM daemon's TCP handlers; the CPU itself is driven
// from the simulation goroutine only.
type Node struct {
	id  int
	cpu *power2.CPU      // driven from the simulation goroutine, under mu
	acc *hpm.Accumulator // guarded by mu; the daemon's extended 64-bit counter view

	mu sync.Mutex // guards monitor access for cross-goroutine snapshots
}

// New builds a node.
func New(cfg Config) *Node {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = units.NodeMemoryBytes
	}
	cpuCfg := cfg.CPU
	cpuCfg.MemoryBytes = cfg.MemoryBytes
	if cpuCfg.Seed == 0 {
		cpuCfg.Seed = uint64(cfg.ID) + 1
	}
	cpu := power2.New(cpuCfg)
	return &Node{
		id:  cfg.ID,
		cpu: cpu,
		acc: hpm.NewAccumulator(cpu.Monitor()),
	}
}

// ID returns the node number.
func (n *Node) ID() int { return n.id }

// NodeID implements hps.Adapter.
func (n *Node) NodeID() int { return n.id }

// CPU exposes the processor (single-goroutine use only).
func (n *Node) CPU() *power2.CPU { return n.cpu }

// RunLimited executes at most k instructions.
func (n *Node) RunLimited(s isa.Stream, k uint64) power2.RunStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.cpu.RunLimited(s, k)
	n.acc.Sample()
	return st
}

// AccountDMA implements hps.Adapter: message-passing traffic lands in the
// SCU's DMA counters.
func (n *Node) AccountDMA(reads, writes uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cpu.AddDMA(reads, writes)
	n.acc.Sample()
}

// ArmSelection re-programs the hardware monitor with a verified counter
// selection (clearing the registers and the extended totals, as re-arming
// the real hardware did). It implements rs2hpm's optional Armer interface.
func (n *Node) ArmSelection(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.cpu.Monitor().Arm(name); err != nil {
		return err
	}
	n.acc.Reset()
	return nil
}

// AddIOWait charges I/O-wait time (message receipt, barrier waits, disk
// service) to the CPU's io_wait signal; visible only when the I/O-wait
// counter selection is armed.
func (n *Node) AddIOWait(seconds float64) {
	if seconds <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cpu.AddIOWait(uint64(float64(seconds * units.ClockHz)))
	n.acc.Sample()
}

// Counters returns the daemon's extended 64-bit counter view; safe to
// call from the daemon goroutine while the simulation runs.
func (n *Node) Counters() hpm.Counts64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.acc.Sample()
	return n.acc.Totals()
}

// SampleInto is the cron sweep's per-node read: it samples the registers
// into the extended totals, adds their advance since *prev to *d, and
// moves *prev up to them — hpm.Sub64(*prev, n.Counters()) folded into *d
// without copying a counter table. It panics, as Sub64 does, if the
// totals ran backwards since *prev: after a counter reset the caller must
// re-baseline with Counters instead.
func (n *Node) SampleInto(prev *hpm.Counts64, d *hpm.Delta) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.acc.Sample()
	n.acc.AdvanceInto(prev, d)
}

// ApplyStep advances the extended counters by one resolved profile
// interval under the node lock (profile.Step.ApplyTo on the node's
// accumulator). It is the campaign's extrapolation step, once per job
// node per tick; the job resolves the step once for all its nodes.
func (n *Node) ApplyStep(s *profile.Step, rnd *rng.Source) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s.ApplyTo(n.acc, rnd)
}

// WithAccumulator runs fn with exclusive access to the extended counter
// accumulator, for callers that drive it directly; the campaign's profile
// extrapolation uses ApplyStep.
func (n *Node) WithAccumulator(fn func(a *hpm.Accumulator)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.acc)
}

// ResetMonitor zeroes both the hardware counters and the extended totals
// (used between campaign segments, and by the fault layer for a node
// crash: a reboot loses registers and daemon state alike).
func (n *Node) ResetMonitor() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cpu.Monitor().Reset()
	n.acc.Reset()
}

// ResetExtendedTotals zeroes the extended software totals and re-baselines
// against the live hardware registers, which keep counting — an RS2HPM
// daemon restart, where the kernel extension survives but the daemon's
// accumulated totals are gone.
func (n *Node) ResetExtendedTotals() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.acc.Reset()
}
