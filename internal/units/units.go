// Package units defines the physical quantities and machine constants used
// throughout the SP2 simulation: cycles, floating-point operations, bytes,
// and the rates derived from them, together with the published geometry of
// the NAS SP2 RS6000/590 node (White and Dhawan, 1994).
//
// Every rate reported by the paper is "mega-something per second"; keeping
// the unit arithmetic in one tested place prevents the classic
// cycles-vs-seconds and per-node-vs-per-system mistakes.
package units

import "fmt"

// Machine constants for the NAS SP2 node (RS6000/590, POWER2).
const (
	// ClockHz is the POWER2 clock rate: 66.7 MHz.
	ClockHz = 66.7e6

	// PeakMflopsPerNode is the peak floating-point rate of one node:
	// 2 FPUs x 2 flops (fma) per cycle x 66.7 MHz = 266.8 ~ 267 Mflops.
	PeakMflopsPerNode = 267.0

	// NodeCount is the size of the NAS SP2 cluster.
	NodeCount = 144

	// DCacheBytes is the data cache capacity: 256 kB.
	DCacheBytes = 256 * 1024
	// DCacheLineBytes is the data cache line size: 256 bytes.
	DCacheLineBytes = 256
	// DCacheWays is the data-cache associativity.
	DCacheWays = 4
	// DCacheLines is the number of cache lines (1024).
	DCacheLines = DCacheBytes / DCacheLineBytes

	// ICacheBytes is the instruction cache capacity (32 kB on the 590).
	ICacheBytes = 32 * 1024
	// ICacheLineBytes is the instruction cache line size.
	ICacheLineBytes = 128
	// ICacheWays is the instruction-cache associativity.
	ICacheWays = 2

	// PageBytes is the virtual-memory page size: 4096 bytes.
	PageBytes = 4096
	// TLBEntries is the number of TLB entries: 512.
	TLBEntries = 512
	// TLBWays is the TLB associativity (2-way on POWER2).
	TLBWays = 2

	// CacheMissPenaltyCycles is the stall on a D-cache miss (paper: 8 cycles).
	CacheMissPenaltyCycles = 8
	// TLBMissPenaltyMinCycles and TLBMissPenaltyMaxCycles bound the TLB
	// reload delay (paper: 36 to 54 cycles).
	TLBMissPenaltyMinCycles = 36
	TLBMissPenaltyMaxCycles = 54

	// FPDivideCycles is the POWER2 floating divide latency (paper: 10 cycles).
	FPDivideCycles = 10
	// FPSqrtCycles is the floating square-root latency (paper: 15 cycles).
	FPSqrtCycles = 15

	// DispatchWidth is the ICU dispatch width: 4 instructions/cycle.
	DispatchWidth = 4
	// FetchWidth is the ICU prefetch width: 8 instructions/cycle.
	FetchWidth = 8

	// SwitchLatencySeconds is the High Performance Switch latency (~45 us).
	SwitchLatencySeconds = 45e-6
	// SwitchBandwidthBytesPerSec is the node-to-node bandwidth (34 MB/s).
	SwitchBandwidthBytesPerSec = 34e6

	// NodeMemoryBytes is the main memory per node (at least 128 MB).
	NodeMemoryBytes = 128 * 1024 * 1024
	// NodeDiskBytes is the local disk per node (2 GB).
	NodeDiskBytes = 2 * 1024 * 1024 * 1024

	// WordBytes is the fundamental word size used by DMA accounting
	// (a transfer moves 4 or 8 words; a word is 8 bytes for real*8 data).
	WordBytes = 8

	// Real8Bytes is the size of a double-precision element.
	Real8Bytes = 8
)

// Cycles counts processor clock cycles.
type Cycles uint64

// Seconds converts a cycle count to wall-clock seconds at the SP2 clock.
func (c Cycles) Seconds() float64 { return float64(c) / ClockHz }

// String renders the count with a unit suffix.
func (c Cycles) String() string { return fmt.Sprintf("%d cyc", uint64(c)) }

// FromSeconds converts seconds of node time to cycles at the SP2 clock.
func FromSeconds(s float64) Cycles {
	if s < 0 {
		return 0
	}
	return Cycles(float64(s * ClockHz))
}

// Flops counts floating-point operations (an fma counts as two).
type Flops uint64

// Bytes counts bytes.
type Bytes uint64

// String renders a byte count with a binary-prefix suffix.
func (b Bytes) String() string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", uint64(b))
}

// Rate is a per-second rate expressed in "millions per second", the unit the
// paper uses for every table (Mips, Mops, Mflops, Mtransfers/s).
type Rate float64

// RatePerSec builds a Rate from a raw count over an interval in seconds.
func RatePerSec(count uint64, seconds float64) Rate {
	if seconds <= 0 {
		return 0
	}
	return Rate(float64(count) / seconds / 1e6)
}

// RatePerCycles builds a Rate from a raw count over an interval in cycles.
func RatePerCycles(count uint64, cycles Cycles) Rate {
	return RatePerSec(count, cycles.Seconds())
}

// Millions reports the numeric value in millions/second.
func (r Rate) Millions() float64 { return float64(r) }

// PerSecond reports the raw events-per-second value.
func (r Rate) PerSecond() float64 { return float64(r) * 1e6 }

// String renders the rate as the paper prints it.
func (r Rate) String() string { return fmt.Sprintf("%.3f M/s", float64(r)) }

// Gflops converts a per-node Mflops rate into a per-system Gflops rate for
// the given node count.
func Gflops(perNodeMflops float64, nodes int) float64 {
	return perNodeMflops * float64(nodes) / 1000.0
}

// PercentOfPeak reports a per-node Mflops rate as a percentage of node peak.
func PercentOfPeak(perNodeMflops float64) float64 {
	return 100 * perNodeMflops / PeakMflopsPerNode
}

// CacheLinesTouched reports how many distinct cache lines a sequential scan
// of n real*8 elements touches (one miss every 32 elements at a 256 B line).
func CacheLinesTouched(nElems int) int {
	if nElems <= 0 {
		return 0
	}
	bytes := nElems * Real8Bytes
	return (bytes + DCacheLineBytes - 1) / DCacheLineBytes
}

// PagesTouched reports how many distinct pages a sequential scan of n real*8
// elements touches (one TLB miss every 512 elements at a 4 KB page).
func PagesTouched(nElems int) int {
	if nElems <= 0 {
		return 0
	}
	bytes := nElems * Real8Bytes
	return (bytes + PageBytes - 1) / PageBytes
}
