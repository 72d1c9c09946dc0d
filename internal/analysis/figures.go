package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asciichart"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure1Data is the system performance history (paper Figure 1).
type Figure1Data struct {
	DailyGflops []float64
	MovingAvg   []float64
	Utilization []float64
	UtilAvg     []float64
	MeanGflops  float64
	MaxGflops   float64
	MeanUtil    float64
	MaxUtil     float64
}

// movingWindow is the smoothing window used for the figure's moving
// averages (the paper does not state its window; two weeks reads well).
const movingWindow = 14

// ComputeFigure1 builds the daily series. Rates come through the
// coverage-aware day helpers so a faulted campaign's gappy record is
// reduced over observed node-seconds; utilisation stays scheduler truth
// (busy node-seconds are known exactly whether or not samples arrived).
func ComputeFigure1(res workload.Result) Figure1Data {
	var f Figure1Data
	for i, d := range res.Days {
		f.DailyGflops = append(f.DailyGflops, res.DayGflops(i))
		f.Utilization = append(f.Utilization, d.Utilization(res.Config.Nodes))
	}
	f.MovingAvg = stats.MovingAverage(f.DailyGflops, movingWindow)
	f.UtilAvg = stats.MovingAverage(f.Utilization, movingWindow)
	f.MeanGflops = stats.Mean(f.DailyGflops)
	f.MaxGflops = stats.Max(f.DailyGflops)
	f.MeanUtil = stats.Mean(f.Utilization)
	f.MaxUtil = stats.Max(f.Utilization)
	return f
}

// Render draws Figure 1: daily rate, moving average, and utilisation
// (scaled onto the Gflops axis, as the paper's right-hand axis does).
func (f Figure1Data) Render() string {
	utilScale := 4.0 // 1.0 utilisation -> 4 Gflops on the shared axis
	scaled := make([]float64, len(f.UtilAvg))
	for i, u := range f.UtilAvg {
		scaled[i] = u * utilScale
	}
	chart := asciichart.LineChart(
		"Figure 1: NAS SP2 System Performance History (GFLOPS by day)",
		100, 20,
		asciichart.Series{Glyph: '.', Label: "daily rate", Values: f.DailyGflops},
		asciichart.Series{Glyph: '*', Label: "daily rate, 14-day moving avg", Values: f.MovingAvg},
		asciichart.Series{Glyph: 'u', Label: fmt.Sprintf("utilization moving avg (x%.0f)", utilScale), Values: scaled},
	)
	return chart + fmt.Sprintf(
		"daily mean %.2f Gflops [paper ~1.3], max %.2f [3.4]; utilization mean %.0f%% [64%%], max %.0f%% [95%%]\n",
		f.MeanGflops, f.MaxGflops, 100*f.MeanUtil, 100*f.MaxUtil)
}

// Figure2Data is batch-job walltime by nodes requested (paper Figure 2).
type Figure2Data struct {
	NodeCounts []int
	Walltime   []float64 // seconds, same order as NodeCounts
	PeakNodes  int       // the most popular choice (paper: 16)
	Over64Frac float64
}

// ComputeFigure2 aggregates record walltime by node count.
func ComputeFigure2(res workload.Result) Figure2Data {
	byNodes := map[int]float64{}
	total, over := 0.0, 0.0
	for _, r := range res.Records {
		byNodes[r.NodesUsed] += r.WallSeconds
		total += r.WallSeconds
		if r.NodesUsed > 64 {
			over += r.WallSeconds
		}
	}
	var f Figure2Data
	for n := range byNodes {
		f.NodeCounts = append(f.NodeCounts, n)
	}
	sort.Ints(f.NodeCounts)
	best := 0.0
	for _, n := range f.NodeCounts {
		w := byNodes[n]
		f.Walltime = append(f.Walltime, w)
		if w > best {
			best, f.PeakNodes = w, n
		}
	}
	if total > 0 {
		f.Over64Frac = over / total
	}
	return f
}

// Render draws Figure 2.
func (f Figure2Data) Render() string {
	labels := make([]string, len(f.NodeCounts))
	for i, n := range f.NodeCounts {
		labels[i] = fmt.Sprintf("%d", n)
	}
	chart := asciichart.BarChart(
		"Figure 2: Batch Job Walltime as a Function of Nodes Requested (seconds)",
		labels, f.Walltime, 60)
	return chart + fmt.Sprintf("peak at %d nodes [paper: 16]; >64-node share %.1f%% [~0%%]\n",
		f.PeakNodes, 100*f.Over64Frac)
}

// Figure3Data is per-node job performance vs nodes requested (Figure 3).
type Figure3Data struct {
	Nodes        []float64
	MflopsPer    []float64
	MeanUpTo64   float64
	MeanBeyond64 float64
	PeakMflops   float64
}

// ComputeFigure3 extracts one point per batch record.
func ComputeFigure3(res workload.Result) Figure3Data {
	var f Figure3Data
	var small, large []float64
	for _, r := range res.Records {
		mf := r.PerNodeRates().MflopsAll
		f.Nodes = append(f.Nodes, float64(r.NodesUsed))
		f.MflopsPer = append(f.MflopsPer, mf)
		if r.NodesUsed > 64 {
			large = append(large, mf)
		} else {
			small = append(small, mf)
		}
		if mf > f.PeakMflops {
			f.PeakMflops = mf
		}
	}
	f.MeanUpTo64 = stats.Mean(small)
	f.MeanBeyond64 = stats.Mean(large)
	return f
}

// Render draws Figure 3.
func (f Figure3Data) Render() string {
	chart := asciichart.Scatter(
		"Figure 3: Batch Job Performance vs Nodes Requested (Mflops per node)",
		100, 18, f.Nodes, f.MflopsPer, 'o')
	return chart + fmt.Sprintf(
		"mean <=64 nodes %.1f Mflops/node; mean >64 nodes %.1f [sharp decrease]; peak %.1f [~40]\n",
		f.MeanUpTo64, f.MeanBeyond64, f.PeakMflops)
}

// Figure4Data is the 16-node job performance history (Figure 4).
type Figure4Data struct {
	JobMflops   []float64 // whole-job Mflops in job-ID order
	MovingAvg   []float64
	Mean        float64 // paper: ~320
	Std         float64 // paper: ~200 ("variance")
	TrendPerJob float64 // least-squares slope; paper: no trend
}

// ComputeFigure4 extracts the 16-node slice in job order (the paper's
// "most popular selection").
func ComputeFigure4(res workload.Result) Figure4Data {
	return ComputeFigure4For(res, 16)
}

// Render draws Figure 4.
func (f Figure4Data) Render() string {
	chart := asciichart.LineChart(
		"Figure 4: NAS SP2 16-node Performance Histories (job Mflops by batch job number)",
		100, 18,
		asciichart.Series{Glyph: '.', Label: "16-node job rate", Values: f.JobMflops},
		asciichart.Series{Glyph: '*', Label: "moving average", Values: f.MovingAvg},
	)
	return chart + fmt.Sprintf(
		"mean %.0f Mflops [paper ~320], spread (std) %.0f [~200], trend %.3f Mflops/job [no trend]\n",
		f.Mean, f.Std, f.TrendPerJob)
}

// Figure5Data is node performance vs system intervention (Figure 5).
type Figure5Data struct {
	Ratio     []float64 // per-day system/user FXU ratio
	MflopsPer []float64 // per-day per-node Mflops
	Corr      float64   // negative: paging days perform worse
}

// ComputeFigure5 extracts one point per campaign day with any activity.
func ComputeFigure5(res workload.Result) Figure5Data {
	var f Figure5Data
	for i, d := range res.Days {
		//hpmlint:ignore floatcompare exact zero means "no samples accumulated", not a computed value
		if d.BusyNodeSeconds == 0 {
			continue
		}
		ratio := d.SystemUserFXURatio()
		if ratio > 5 {
			ratio = 5 // the paper's axis tops out at 5
		}
		f.Ratio = append(f.Ratio, ratio)
		f.MflopsPer = append(f.MflopsPer, res.DayPerNodeRates(i).MflopsAll)
	}
	f.Corr = stats.Correlation(f.Ratio, f.MflopsPer)
	return f
}

// Render draws Figure 5.
func (f Figure5Data) Render() string {
	chart := asciichart.Scatter(
		"Figure 5: Node Performance vs System Intervention (Mflops/node vs system-FXU/user-FXU)",
		100, 18, f.Ratio, f.MflopsPer, 'x')
	return chart + fmt.Sprintf(
		"correlation %.2f [negative: high system intervention on below-average days]\n", f.Corr)
}

// RenderAll produces every figure in order.
func RenderAll(res workload.Result) string {
	var b strings.Builder
	b.WriteString(ComputeFigure1(res).Render())
	b.WriteString("\n")
	b.WriteString(ComputeFigure2(res).Render())
	b.WriteString("\n")
	b.WriteString(ComputeFigure3(res).Render())
	b.WriteString("\n")
	b.WriteString(ComputeFigure4(res).Render())
	b.WriteString("\n")
	b.WriteString(ComputeFigure5(res).Render())
	return b.String()
}

// ComputeFigure4For generalises Figure 4 to any node count — the paper
// notes "similar trends occur for other processor counts".
func ComputeFigure4For(res workload.Result, nodes int) Figure4Data {
	type pair struct {
		id int
		mf float64
	}
	var ps []pair
	for _, r := range res.Records {
		if r.NodesUsed == nodes {
			ps = append(ps, pair{r.JobID, r.JobMflops()})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	var f Figure4Data
	var idx []float64
	for i, p := range ps {
		f.JobMflops = append(f.JobMflops, p.mf)
		idx = append(idx, float64(i))
	}
	f.MovingAvg = stats.MovingAverage(f.JobMflops, 25)
	f.Mean = stats.Mean(f.JobMflops)
	f.Std = stats.StdDev(f.JobMflops)
	f.TrendPerJob, _ = stats.LinearFit(idx, f.JobMflops)
	return f
}
