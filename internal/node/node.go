// Package node assembles one SP2 node: a POWER2 CPU with its hardware
// performance monitor, at least 128 MB of memory, a 2 GB local disk, and a
// switch adapter. The node is where architectural simulation (instruction
// streams through the CPU) and campaign-level accounting (DMA traffic,
// disk I/O, monitor snapshots for the RS2HPM daemon) meet.
package node

import (
	"fmt"
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
	// DiskBytes is local disk; zero selects the SP2's 2 GB.
	DiskBytes uint64
	// CPU overrides parts of the processor configuration; MemoryBytes
	// above takes precedence for the paging model.
	CPU power2.Config
}

// Node is one SP2 node. The mutex guards the monitor against concurrent
// access from the RS2HPM daemon's TCP handlers; the CPU itself is driven
// from the simulation goroutine only.
type Node struct {
	id   int
	cpu  *power2.CPU // driven from the simulation goroutine, under mu
	disk *Disk
	acc  *hpm.Accumulator // guarded by mu; the daemon's extended 64-bit counter view

	mu sync.Mutex // guards monitor access for cross-goroutine snapshots
}

// New builds a node.
func New(cfg Config) *Node {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = units.NodeMemoryBytes
	}
	if cfg.DiskBytes == 0 {
		cfg.DiskBytes = units.NodeDiskBytes
	}
	cpuCfg := cfg.CPU
	cpuCfg.MemoryBytes = cfg.MemoryBytes
	if cpuCfg.Seed == 0 {
		cpuCfg.Seed = uint64(cfg.ID) + 1
	}
	cpu := power2.New(cpuCfg)
	return &Node{
		id:   cfg.ID,
		cpu:  cpu,
		disk: NewDisk(cfg.DiskBytes),
		acc:  hpm.NewAccumulator(cpu.Monitor()),
	}
}

// ID returns the node number.
func (n *Node) ID() int { return n.id }

// NodeID implements hps.Adapter.
func (n *Node) NodeID() int { return n.id }

// CPU exposes the processor (single-goroutine use only).
func (n *Node) CPU() *power2.CPU { return n.cpu }

// Disk exposes the local disk model.
func (n *Node) Disk() *Disk { return n.disk }

// Run executes an instruction stream on the node's CPU and folds the new
// hardware counts into the extended totals. Callers must keep individual
// runs short enough that no 32-bit register wraps twice (under 2^31
// cycles, i.e. ~30 simulated seconds — vastly more than any microsim
// burst).
func (n *Node) Run(s isa.Stream) power2.RunStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.cpu.Run(s)
	n.acc.Sample()
	return st
}

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

// WithMonitor runs fn with exclusive access to the node's hardware
// monitor, folding any new counts into the extended totals afterwards.
func (n *Node) WithMonitor(fn func(m *hpm.Monitor)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.cpu.Monitor())
	n.acc.Sample()
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

// Disk is the node's local disk plus its NFS path to the home filesystems:
// a capacity bookkeeping device whose traffic also appears in the DMA
// counters (the paper notes disk traffic shows up in the DMA read/write
// system report). Safe for concurrent use: the simulation goroutine and
// campaign bookkeeping may touch it from different goroutines.
type Disk struct {
	capacity uint64 // immutable after NewDisk

	mu         sync.Mutex
	used       uint64 // guarded by mu
	readBytes  uint64 // guarded by mu
	writeBytes uint64 // guarded by mu
}

// NewDisk builds a disk with the given capacity.
func NewDisk(capacity uint64) *Disk {
	return &Disk{capacity: capacity}
}

// Capacity returns the disk size in bytes.
func (d *Disk) Capacity() uint64 { return d.capacity }

// Used returns allocated bytes.
func (d *Disk) Used() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Allocate reserves space, failing when the disk would overflow.
func (d *Disk) Allocate(bytes uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+bytes > d.capacity {
		return fmt.Errorf("node: disk full: %d + %d > %d", d.used, bytes, d.capacity)
	}
	d.used += bytes
	return nil
}

// Release frees space (clamped at zero).
func (d *Disk) Release(bytes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if bytes > d.used {
		bytes = d.used
	}
	d.used -= bytes
}

// RecordIO accumulates raw traffic counters.
func (d *Disk) RecordIO(readBytes, writeBytes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readBytes += readBytes
	d.writeBytes += writeBytes
}

// Traffic reports accumulated read/write bytes.
func (d *Disk) Traffic() (readBytes, writeBytes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readBytes, d.writeBytes
}

// DiskIO performs disk traffic on the node: it charges the DMA counters
// (reads from disk are device-to-memory dma_write transfers and vice
// versa) and records the raw byte counts.
func (n *Node) DiskIO(readBytes, writeBytes uint64) {
	const per = 64
	n.AccountDMA((writeBytes+per-1)/per, (readBytes+per-1)/per)
	n.disk.RecordIO(readBytes, writeBytes)
}
