// Package analysis reduces a campaign result to the paper's tables and
// figures: Table 2/3's good-day rate statistics, Table 4's memory-hierarchy
// comparison, and Figures 1-5. Every Compute function returns plain data
// (tested against the paper's bands); every Render function formats it the
// way the paper prints it.
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/hpm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// GoodDayThresholdGflops is the paper's filter: "days with performance
// exceeding 2.0 Gflops" (30 of 270 days).
const GoodDayThresholdGflops = 2.0

// goodDayIndices returns the indices of the days above the threshold. The
// reductions below work on indices rather than Day values so a faulted
// campaign's coverage ledger (keyed by day index) stays attached to each
// day.
func goodDayIndices(res workload.Result) []int {
	var out []int
	for i := range res.Days {
		if res.DayGflops(i) > GoodDayThresholdGflops {
			out = append(out, i)
		}
	}
	return out
}

// RenderTable1 prints the NAS counter selection (paper Table 1).
func RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: NAS SP2 RS2HPM Counters\n")
	fmt.Fprintf(&b, "%-20s %-9s %s\n", "Counter Label", "Counter", "Description")
	for _, row := range hpm.Table1() {
		fmt.Fprintf(&b, "%-20s %s[%d]%s %s\n",
			row.Label, row.Group, row.Index,
			strings.Repeat(" ", 6-len(row.Group)), row.Description)
	}
	return b.String()
}

// Table2 holds the measured major rates (paper Table 2): per-node Mips,
// Mops and Mflops for a representative day plus the good-day sample's
// average and standard deviation.
type Table2 struct {
	GoodDays  int
	TotalDays int
	Day       hpm.Rates // the representative single day
	DayIndex  int
	AvgMips   float64
	StdMips   float64
	AvgMops   float64
	StdMops   float64
	AvgMflops float64
	StdMflops float64
	AvgUtil   float64 // good-day utilisation (paper: 76%)
	AvgGflops float64 // good-day system rate (paper: ~2.5)
}

// ComputeTable2 reduces the campaign to Table 2. The representative day is
// the good day whose Mflops is closest to the sample median (the paper
// shows "Day 45.0").
func ComputeTable2(res workload.Result) Table2 {
	good := goodDayIndices(res)
	t := Table2{GoodDays: len(good), TotalDays: len(res.Days)}
	if len(good) == 0 {
		return t
	}
	nodes := res.Config.Nodes
	var mips, mops, mf, util, gfl []float64
	for _, idx := range good {
		r := res.DayPerNodeRates(idx)
		mips = append(mips, r.Mips)
		mops = append(mops, r.Mops)
		mf = append(mf, r.MflopsAll)
		util = append(util, res.Days[idx].Utilization(nodes))
		gfl = append(gfl, res.DayGflops(idx))
	}
	t.AvgMips, t.StdMips = stats.Mean(mips), stats.StdDev(mips)
	t.AvgMops, t.StdMops = stats.Mean(mops), stats.StdDev(mops)
	t.AvgMflops, t.StdMflops = stats.Mean(mf), stats.StdDev(mf)
	t.AvgUtil = stats.Mean(util)
	t.AvgGflops = stats.Mean(gfl)

	median := stats.Median(mf)
	bestIdx := 0
	for i, v := range mf {
		if abs(v-median) < abs(mf[bestIdx]-median) {
			bestIdx = i
		}
	}
	t.Day = res.DayPerNodeRates(good[bestIdx])
	t.DayIndex = res.Days[good[bestIdx]].Index
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render formats Table 2 as the paper prints it.
func (t Table2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Measured Major Rates for NAS Workload\n")
	fmt.Fprintf(&b, "(%d of %d days exceeded %.1f Gflops; good-day avg %.2f Gflops at %.0f%% utilization)\n",
		t.GoodDays, t.TotalDays, GoodDayThresholdGflops, t.AvgGflops, 100*t.AvgUtil)
	fmt.Fprintf(&b, "%-8s %10s %10s %8s\n", "Rates", fmt.Sprintf("Day %d", t.DayIndex), "Avg Rate", "Std")
	fmt.Fprintf(&b, "%-8s %10.1f %10.1f %8.1f\n", "Mips", t.Day.Mips, t.AvgMips, t.StdMips)
	fmt.Fprintf(&b, "%-8s %10.1f %10.1f %8.1f\n", "Mops", t.Day.Mops, t.AvgMops, t.StdMops)
	fmt.Fprintf(&b, "%-8s %10.1f %10.1f %8.1f\n", "Mflops", t.Day.MflopsAll, t.AvgMflops, t.StdMflops)
	return b.String()
}

// Table3Row is one line of the full breakdown.
type Table3Row struct {
	Label string
	Day   float64
	Avg   float64
	Std   float64
}

// Table3 is the full rate breakdown (paper Table 3).
type Table3 struct {
	DayIndex int
	Sections []struct {
		Name string
		Rows []Table3Row
	}
	// Derived statistics quoted in the text.
	FMAFraction  float64 // ~0.54
	FPUAsymmetry float64 // ~1.7
	FlopsPerMem  float64 // ~0.53-0.63
	CacheRatio   float64 // ~1.0%
	TLBRatio     float64 // ~0.1%
	BranchFrac   float64 // ~11% interpretation
	DelayPerMem  float64 // ~0.12 cycles
}

// ComputeTable3 reduces the good-day sample to the full breakdown.
func ComputeTable3(res workload.Result) Table3 {
	good := goodDayIndices(res)
	var t Table3
	if len(good) == 0 {
		return t
	}
	t2 := ComputeTable2(res)
	t.DayIndex = t2.DayIndex
	day := t2.Day

	collect := func(f func(hpm.Rates) float64) (avg, std float64) {
		var xs []float64
		for _, idx := range good {
			xs = append(xs, f(res.DayPerNodeRates(idx)))
		}
		return stats.Mean(xs), stats.StdDev(xs)
	}
	section := func(name string, rows ...Table3Row) {
		t.Sections = append(t.Sections, struct {
			Name string
			Rows []Table3Row
		}{name, rows})
	}
	row := func(label string, f func(hpm.Rates) float64) Table3Row {
		avg, std := collect(f)
		return Table3Row{Label: label, Day: f(day), Avg: avg, Std: std}
	}

	section("OPS",
		row("Mflops-All", func(r hpm.Rates) float64 { return r.MflopsAll }),
		row("Mflops-add", func(r hpm.Rates) float64 { return r.MflopsAdd }),
		row("Mflops-div", func(r hpm.Rates) float64 { return r.MflopsDiv }),
		row("Mflops-mult", func(r hpm.Rates) float64 { return r.MflopsMul }),
		row("Mflops-fma", func(r hpm.Rates) float64 { return r.MflopsFMA }),
	)
	section("INST",
		row("Mips-Floating Point (Total)", func(r hpm.Rates) float64 { return r.MipsFPU }),
		row("Mips-Floating Point (Unit 0)", func(r hpm.Rates) float64 { return r.MipsFPU0 }),
		row("Mips-Floating Point (Unit 1)", func(r hpm.Rates) float64 { return r.MipsFPU1 }),
		row("Mips-Fixed Point Unit (Total)", func(r hpm.Rates) float64 { return r.MipsFXU }),
		row("Mips-Fixed Point (Unit 1)", func(r hpm.Rates) float64 { return r.MipsFXU1 }),
		row("Mips-Fixed Point (Unit 0)", func(r hpm.Rates) float64 { return r.MipsFXU0 }),
		row("Mips-Inst Cache Unit", func(r hpm.Rates) float64 { return r.MipsICU }),
	)
	section("CACHE",
		row("Data Cache Misses-Million/S", func(r hpm.Rates) float64 { return r.DCacheMissM }),
		row("TLB-Million/S", func(r hpm.Rates) float64 { return r.TLBMissM }),
		row("Instruction Cache Misses-Million/S", func(r hpm.Rates) float64 { return r.ICacheMissM }),
	)
	section("I/O",
		row("DMA reads-MTransfer/S", func(r hpm.Rates) float64 { return r.DMAReadM }),
		row("DMA writes-MTransfer/S", func(r hpm.Rates) float64 { return r.DMAWriteM }),
	)

	// Text statistics from the sample averages.
	avgRates := pooledRates(res, good)
	t.FMAFraction = avgRates.FMAFraction()
	t.FPUAsymmetry = avgRates.FPUAsymmetry()
	t.FlopsPerMem = avgRates.FlopsPerMemRef()
	t.CacheRatio = avgRates.CacheMissRatio()
	t.TLBRatio = avgRates.TLBMissRatio()
	t.BranchFrac = avgRates.BranchFraction()
	t.DelayPerMem = avgRates.DelayPerMemRef(8, 45)
	return t
}

// pooledRates sums the sample's deltas so derived ratios use pooled
// counts rather than averages of ratios. The divisor is the node-seconds
// the collection actually covered over those days — the full wall clock
// for a clean campaign, the ledger's covered time for a faulted one.
func pooledRates(res workload.Result, idxs []int) hpm.Rates {
	var total hpm.Delta
	covered := 0.0
	for _, i := range idxs {
		total.Add(res.Days[i].Delta)
		covered += res.DayCoveredNodeSeconds(i)
	}
	if covered <= 0 {
		return hpm.Rates{}
	}
	return hpm.UserRates(total, covered)
}

// Render formats Table 3 plus the derived text statistics.
func (t Table3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Measured Major Rates for NAS Workload (full breakdown)\n")
	fmt.Fprintf(&b, "%-36s %9s %9s %8s\n", "Rates", fmt.Sprintf("Day %d", t.DayIndex), "Avg", "Std")
	for _, sec := range t.Sections {
		fmt.Fprintf(&b, "%s\n", sec.Name)
		for _, r := range sec.Rows {
			fmt.Fprintf(&b, "  %-34s %9.3f %9.3f %8.3f\n", r.Label, r.Day, r.Avg, r.Std)
		}
	}
	fmt.Fprintf(&b, "derived: fma share of flops %.0f%% [54%%], FPU0/FPU1 %.2f [1.7], "+
		"flops/memref %.2f [0.53-0.63],\n         cache-miss ratio %.2f%% [1.0%%], TLB ratio %.3f%% [0.1%%], "+
		"delay/memref %.2f cyc [0.12]\n",
		100*t.FMAFraction, t.FPUAsymmetry, t.FlopsPerMem,
		100*t.CacheRatio, 100*t.TLBRatio, t.DelayPerMem)
	return b.String()
}

// Table4 is the hierarchical memory performance comparison (paper Table 4).
type Table4 struct {
	// Rows: NAS workload, sequential access, NPB BT on 49 CPUs.
	Workload   Table4Row
	Sequential Table4Row
	BT49       Table4Row
}

// Table4Row holds one column of the paper's table (it is printed
// transposed, like the original).
type Table4Row struct {
	CacheMissRatio float64
	TLBMissRatio   float64
	MflopsPerCPU   float64 // zero when the paper leaves the cell blank
}

// ComputeTable4 combines the campaign's good-day sample with direct kernel
// measurements. seqRates and btRates come from the harness: a microsim of
// the sequential kernel and a real 49-rank MPI run of the BT kernel.
func ComputeTable4(res workload.Result, seq, bt49 Table4Row) Table4 {
	good := goodDayIndices(res)
	var w Table4Row
	if len(good) > 0 {
		r := pooledRates(res, good)
		w = Table4Row{
			CacheMissRatio: r.CacheMissRatio(),
			TLBMissRatio:   r.TLBMissRatio(),
			MflopsPerCPU:   r.MflopsAll,
		}
	}
	return Table4{Workload: w, Sequential: seq, BT49: bt49}
}

// Render formats Table 4.
func (t Table4) Render() string {
	var b strings.Builder
	b.WriteString("Table 4: Hierarchical Memory Performance\n")
	fmt.Fprintf(&b, "%-18s %14s %18s %14s\n", "Rate", "NAS Workload", "Sequential Access", "NPB BT 49 CPUs")
	fmt.Fprintf(&b, "%-18s %13.1f%% %17.1f%% %13.2f%%\n", "Cache Miss Ratio",
		100*t.Workload.CacheMissRatio, 100*t.Sequential.CacheMissRatio, 100*t.BT49.CacheMissRatio)
	fmt.Fprintf(&b, "%-18s %13.2f%% %17.2f%% %13.2f%%\n", "TLB Miss Ratio",
		100*t.Workload.TLBMissRatio, 100*t.Sequential.TLBMissRatio, 100*t.BT49.TLBMissRatio)
	fmt.Fprintf(&b, "%-18s %14.1f %18s %14.1f\n", "Mflops/CPU",
		t.Workload.MflopsPerCPU, "-", t.BT49.MflopsPerCPU)
	return b.String()
}
