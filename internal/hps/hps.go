// Package hps models the SP2 High Performance Switch (Stunkel et al.,
// 1995) as the paper characterises it: ~45 microsecond node-to-node
// latency, ~34 MB/s node-to-node bandwidth, and aggregate bandwidth that
// scales linearly with the number of processors (every node has its own
// adapter port; the multistage network is non-blocking for the workloads
// measured).
//
// The switch moves message bytes between node adapters. Every transfer is
// also accounted as DMA traffic (4-8 word transfers) against the SCU
// counters of both endpoints, which is how message passing shows up in the
// paper's dma_read/dma_write rows.
package hps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/units"
)

// Config describes a switch fabric.
type Config struct {
	// LatencySeconds is the one-way node-to-node message latency.
	LatencySeconds float64
	// BandwidthBytesPerSec is the per-link node-to-node bandwidth.
	BandwidthBytesPerSec float64
	// DMABytesPerTransfer is the accounting granularity of the adapter's
	// DMA engine (a transfer moves 4 or 8 words; 64 bytes by default).
	DMABytesPerTransfer int
}

// SP2 returns the NAS SP2 switch parameters from the paper.
func SP2() Config {
	return Config{
		LatencySeconds:       units.SwitchLatencySeconds,
		BandwidthBytesPerSec: units.SwitchBandwidthBytesPerSec,
		DMABytesPerTransfer:  64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LatencySeconds < 0 {
		return fmt.Errorf("hps: negative latency %v", c.LatencySeconds)
	}
	if c.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("hps: non-positive bandwidth %v", c.BandwidthBytesPerSec)
	}
	if c.DMABytesPerTransfer <= 0 {
		return fmt.Errorf("hps: non-positive DMA transfer size %d", c.DMABytesPerTransfer)
	}
	return nil
}

// Adapter is the per-node communication port. Implemented by node.Node;
// defined here so the switch does not import the node package.
type Adapter interface {
	// NodeID identifies the endpoint.
	NodeID() int
	// AccountDMA charges DMA transfer counts: reads are memory-to-device
	// (sending), writes are device-to-memory (receiving).
	AccountDMA(reads, writes uint64)
}

// Network is a switch fabric connecting adapters. Safe for concurrent
// use: Deliver is called from mpi rank goroutines while the cluster layer
// may still be attaching late-booting nodes or NFS servers.
type Network struct {
	cfg Config

	mu       sync.RWMutex
	adapters map[int]Adapter // guarded by mu

	// Aggregate statistics; atomic because Deliver is called concurrently
	// from mpi rank goroutines.
	messages atomic.Uint64
	bytes    atomic.Uint64
}

// New builds a network; it panics on an invalid configuration.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{cfg: cfg, adapters: make(map[int]Adapter)}
}

// Config returns the fabric parameters.
func (n *Network) Config() Config { return n.cfg }

// Attach registers an adapter; it panics on a duplicate node ID (wiring is
// a construction-time programming error).
func (n *Network) Attach(a Adapter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.adapters[a.NodeID()]; dup {
		panic(fmt.Sprintf("hps: duplicate adapter for node %d", a.NodeID()))
	}
	n.adapters[a.NodeID()] = a
}

// Attached reports the number of attached adapters.
func (n *Network) Attached() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.adapters)
}

// TransferTime returns the one-way time to move a message of the given
// size between two nodes: latency plus serialisation at link bandwidth.
func (n *Network) TransferTime(bytes uint64) float64 {
	return n.cfg.LatencySeconds + float64(bytes)/n.cfg.BandwidthBytesPerSec
}

// Transfers reports how many DMA transfers a message of the given size
// costs at the adapter granularity (at least one for a non-empty message).
func (n *Network) Transfers(bytes uint64) uint64 {
	if bytes == 0 {
		return 0
	}
	per := uint64(n.cfg.DMABytesPerTransfer)
	return (bytes + per - 1) / per
}

// Deliver accounts a message from src to dst and returns its transfer
// time. Both endpoints must be attached. The sender's adapter DMAs the
// message out of memory (dma_read); the receiver's DMAs it in (dma_write).
func (n *Network) Deliver(src, dst int, bytes uint64) (seconds float64, err error) {
	n.mu.RLock()
	sa, okSrc := n.adapters[src]
	da, okDst := n.adapters[dst]
	n.mu.RUnlock()
	if !okSrc {
		return 0, fmt.Errorf("hps: source node %d not attached", src)
	}
	if !okDst {
		return 0, fmt.Errorf("hps: destination node %d not attached", dst)
	}
	t := n.Transfers(bytes)
	sa.AccountDMA(t, 0)
	da.AccountDMA(0, t)
	n.messages.Add(1)
	n.bytes.Add(bytes)
	return n.TransferTime(bytes), nil
}

// Stats reports aggregate message and byte counts.
func (n *Network) Stats() (messages, bytes uint64) {
	return n.messages.Load(), n.bytes.Load()
}
