package analysis

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/spec"
	"repro/internal/workload"
)

var (
	resOnce   sync.Once
	res       workload.Result
	resStream *Stream
)

// campaign runs a 45-day campaign once for the whole test package; long
// enough for every figure to have a populated sample. The workload comes
// from the paper-1996 spec preset — bit-identical to the old hard-coded
// DefaultMix, but the result now carries the scenario label the
// conformance scorecard prints. The reduction is teed into both the
// batch Result and the streaming collector so the two analysis paths can
// be cross-checked against the same run.
func campaign(t *testing.T) workload.Result {
	t.Helper()
	resOnce.Do(func() {
		sp, err := spec.Preset("paper-1996")
		if err != nil {
			t.Fatalf("paper-1996 preset: %v", err)
		}
		std := profile.MeasureStandard(11)
		cfg, mix, err := spec.Resolve(sp, std)
		if err != nil {
			t.Fatalf("resolving paper-1996: %v", err)
		}
		cfg.Seed = 11
		cfg.Days = 45
		var rr workload.ResultReducer
		resStream = NewStream(cfg.Nodes)
		workload.NewCampaign(cfg, mix).
			RunInto(workload.TeeReducer{&rr, resStream})
		res = rr.Result()
	})
	return res
}

func TestRenderTable1ListsAllCounters(t *testing.T) {
	s := RenderTable1()
	for _, label := range []string{"user.fxu0", "user.tlb_mis", "fpop.fp_muladd", "user.dma_write", "user.icache_reload"} {
		if !strings.Contains(s, label) {
			t.Errorf("Table 1 missing %q", label)
		}
	}
	if got := strings.Count(s, "\n"); got != 24 { // title + header + 22 rows
		t.Errorf("Table 1 has %d lines, want 24", got)
	}
}

func TestTable2Bands(t *testing.T) {
	t2 := ComputeTable2(campaign(t))
	if t2.GoodDays == 0 {
		t.Skip("no good days in window")
	}
	// Paper: Mflops 17.4 +/- 3.8, Mips 45.7 +/- 10.5, Mops 48.3 +/- 10.2.
	if t2.AvgMflops < 11 || t2.AvgMflops > 24 {
		t.Errorf("AvgMflops = %.1f, want ~17.4", t2.AvgMflops)
	}
	if t2.AvgMips < 28 || t2.AvgMips > 65 {
		t.Errorf("AvgMips = %.1f, want ~45.7", t2.AvgMips)
	}
	if t2.AvgMops < t2.AvgMips {
		t.Errorf("Mops (%.1f) must exceed Mips (%.1f): flops exceed FPU instructions", t2.AvgMops, t2.AvgMips)
	}
	// Good-day utilisation ~76%.
	if t2.AvgUtil < 0.55 || t2.AvgUtil > 1.0 {
		t.Errorf("good-day utilization = %.2f, want ~0.76", t2.AvgUtil)
	}
	// Representative day close to the average.
	if math.Abs(t2.Day.MflopsAll-t2.AvgMflops) > 2.5*t2.StdMflops+1 {
		t.Errorf("representative day %.1f too far from avg %.1f", t2.Day.MflopsAll, t2.AvgMflops)
	}
	s := t2.Render()
	if !strings.Contains(s, "Mips") || !strings.Contains(s, "Mflops") {
		t.Fatalf("Table 2 render broken:\n%s", s)
	}
}

func TestTable3Structure(t *testing.T) {
	t3 := ComputeTable3(campaign(t))
	if len(t3.Sections) != 4 {
		t.Fatalf("sections = %d, want OPS/INST/CACHE/I-O", len(t3.Sections))
	}
	rows := 0
	for _, sec := range t3.Sections {
		rows += len(sec.Rows)
	}
	if rows != 17 {
		t.Fatalf("rows = %d, want 17 (as in the paper)", rows)
	}
	s := t3.Render()
	for _, want := range []string{"Mflops-fma", "Mips-Fixed Point (Unit 1)", "TLB-Million/S", "DMA reads"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestTable3DerivedStatistics(t *testing.T) {
	t3 := ComputeTable3(campaign(t))
	if t3.DayIndex == 0 && len(GoodDays(campaign(t))) == 0 {
		t.Skip("no good days")
	}
	// fma share ~54% (band 40-65).
	if t3.FMAFraction < 0.40 || t3.FMAFraction > 0.65 {
		t.Errorf("fma fraction = %.2f, want ~0.54", t3.FMAFraction)
	}
	// FPU asymmetry ~1.7 (band 1.2-2.5).
	if t3.FPUAsymmetry < 1.2 || t3.FPUAsymmetry > 2.5 {
		t.Errorf("FPU asymmetry = %.2f, want ~1.7", t3.FPUAsymmetry)
	}
	// flops/memref ~0.5-0.9 (paper 0.53 with FP refs, 0.63 FXU-based).
	if t3.FlopsPerMem < 0.35 || t3.FlopsPerMem > 1.1 {
		t.Errorf("flops/memref = %.2f, want ~0.6", t3.FlopsPerMem)
	}
	// cache ratio ~1%, TLB ~0.1%.
	if t3.CacheRatio < 0.003 || t3.CacheRatio > 0.02 {
		t.Errorf("cache ratio = %.4f, want ~0.01", t3.CacheRatio)
	}
	if t3.TLBRatio < 0.0002 || t3.TLBRatio > 0.003 {
		t.Errorf("TLB ratio = %.5f, want ~0.001", t3.TLBRatio)
	}
	// Divide row must be zero (the counter bug).
	for _, sec := range t3.Sections {
		for _, row := range sec.Rows {
			if row.Label == "Mflops-div" && (row.Avg != 0 || row.Day != 0) {
				t.Errorf("Mflops-div = %v/%v, want 0", row.Day, row.Avg)
			}
		}
	}
	// Delay per memory reference ~0.12 cycles (band 0.04-0.4).
	if t3.DelayPerMem < 0.04 || t3.DelayPerMem > 0.4 {
		t.Errorf("delay/memref = %.3f, want ~0.12", t3.DelayPerMem)
	}
	// FXU1 > FXU0 in the table rows.
	var fxu0, fxu1 float64
	for _, sec := range t3.Sections {
		for _, row := range sec.Rows {
			switch row.Label {
			case "Mips-Fixed Point (Unit 0)":
				fxu0 = row.Avg
			case "Mips-Fixed Point (Unit 1)":
				fxu1 = row.Avg
			}
		}
	}
	if fxu1 <= fxu0 {
		t.Errorf("FXU1 (%.1f) should exceed FXU0 (%.1f)", fxu1, fxu0)
	}
}

func TestSequentialRowMatchesThoughtExperiment(t *testing.T) {
	row := MeasureSequentialRow(1, 200000)
	if row.CacheMissRatio < 0.025 || row.CacheMissRatio > 0.04 {
		t.Errorf("sequential cache ratio = %.4f, want ~0.031", row.CacheMissRatio)
	}
	if row.TLBMissRatio < 0.0015 || row.TLBMissRatio > 0.0025 {
		t.Errorf("sequential TLB ratio = %.5f, want ~0.002", row.TLBMissRatio)
	}
	if row.MflopsPerCPU != 0 {
		t.Error("sequential Mflops cell should be blank")
	}
}

func TestBT49RowMatchesTable4(t *testing.T) {
	row := MeasureBT49Row(DefaultBT49())
	// Paper: 44 Mflops/CPU (band 30-60 — comm ratio sets it).
	if row.MflopsPerCPU < 30 || row.MflopsPerCPU > 60 {
		t.Errorf("BT49 Mflops/CPU = %.1f, want ~44", row.MflopsPerCPU)
	}
	// Cache ratio ~1.2%, TLB ratio 0.06% — notably below the workload's.
	if row.CacheMissRatio < 0.004 || row.CacheMissRatio > 0.025 {
		t.Errorf("BT49 cache ratio = %.4f, want ~0.012", row.CacheMissRatio)
	}
	if row.TLBMissRatio > 0.001 {
		t.Errorf("BT49 TLB ratio = %.5f, want ~0.0006", row.TLBMissRatio)
	}
}

func TestTable4Ordering(t *testing.T) {
	r := campaign(t)
	seq := MeasureSequentialRow(1, 200000)
	bt := MeasureBT49Row(DefaultBT49())
	t4 := ComputeTable4(r, seq, bt)
	// The paper's ordering: sequential access has the worst cache ratio;
	// BT outperforms the workload average per CPU; BT's TLB ratio is the
	// best of the three.
	if !(t4.Sequential.CacheMissRatio > t4.Workload.CacheMissRatio) {
		t.Errorf("cache ratio ordering: seq %.4f vs workload %.4f",
			t4.Sequential.CacheMissRatio, t4.Workload.CacheMissRatio)
	}
	if t4.Workload.MflopsPerCPU > 0 && !(t4.BT49.MflopsPerCPU > t4.Workload.MflopsPerCPU) {
		t.Errorf("Mflops ordering: BT %.1f vs workload %.1f",
			t4.BT49.MflopsPerCPU, t4.Workload.MflopsPerCPU)
	}
	if !(t4.BT49.TLBMissRatio < t4.Sequential.TLBMissRatio) {
		t.Errorf("TLB ordering: BT %.5f vs seq %.5f",
			t4.BT49.TLBMissRatio, t4.Sequential.TLBMissRatio)
	}
	s := t4.Render()
	if !strings.Contains(s, "Cache Miss Ratio") || !strings.Contains(s, "NPB BT") {
		t.Fatalf("Table 4 render broken:\n%s", s)
	}
}

func TestFigure1(t *testing.T) {
	f := ComputeFigure1(campaign(t))
	if len(f.DailyGflops) != 45 || len(f.MovingAvg) != 45 {
		t.Fatalf("series lengths %d/%d", len(f.DailyGflops), len(f.MovingAvg))
	}
	if f.MeanGflops <= 0 || f.MaxGflops < f.MeanGflops {
		t.Fatalf("gflops stats broken: mean %v max %v", f.MeanGflops, f.MaxGflops)
	}
	if f.MeanUtil <= 0.2 || f.MaxUtil > 1.0001 {
		t.Fatalf("util stats broken: mean %v max %v", f.MeanUtil, f.MaxUtil)
	}
	s := f.Render()
	if !strings.Contains(s, "Figure 1") || !strings.Contains(s, "moving avg") {
		t.Fatal("Figure 1 render broken")
	}
}

func TestStreamMatchesBatchFigure1(t *testing.T) {
	batch := ComputeFigure1(campaign(t))
	streamed := resStream.Figure1()
	if resStream.Days() != len(campaign(t).Days) {
		t.Fatalf("stream saw %d days, result has %d", resStream.Days(), len(campaign(t).Days))
	}
	sameSeries := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: series lengths %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("%s[%d]: stream %v vs batch %v", name, i, a[i], b[i])
			}
		}
	}
	sameSeries("DailyGflops", streamed.DailyGflops, batch.DailyGflops)
	sameSeries("Utilization", streamed.Utilization, batch.Utilization)
	sameSeries("MovingAvg", streamed.MovingAvg, batch.MovingAvg)
	sameSeries("UtilAvg", streamed.UtilAvg, batch.UtilAvg)
	for _, p := range []struct {
		name string
		s, b float64
	}{
		{"MeanGflops", streamed.MeanGflops, batch.MeanGflops},
		{"MaxGflops", streamed.MaxGflops, batch.MaxGflops},
		{"MeanUtil", streamed.MeanUtil, batch.MeanUtil},
		{"MaxUtil", streamed.MaxUtil, batch.MaxUtil},
	} {
		if math.Abs(p.s-p.b) > 1e-12 {
			t.Errorf("%s: stream %v vs batch %v", p.name, p.s, p.b)
		}
	}
	fin := resStream.Final()
	if math.Abs(fin.MaxGflops15min-campaign(t).MaxGflops15min) > 1e-12 {
		t.Errorf("Final.MaxGflops15min %v vs Result %v", fin.MaxGflops15min, campaign(t).MaxGflops15min)
	}
	if len(fin.Records) != len(campaign(t).Records) {
		t.Errorf("Final carried %d records, Result %d", len(fin.Records), len(campaign(t).Records))
	}
}

func TestFigure2(t *testing.T) {
	f := ComputeFigure2(campaign(t))
	if f.PeakNodes != 16 {
		t.Errorf("peak at %d nodes, want 16", f.PeakNodes)
	}
	if f.Over64Frac > 0.1 {
		t.Errorf(">64-node share = %.2f, want near zero", f.Over64Frac)
	}
	if !strings.Contains(f.Render(), "Figure 2") {
		t.Fatal("render broken")
	}
}

func TestFigure3(t *testing.T) {
	f := ComputeFigure3(campaign(t))
	if len(f.Nodes) == 0 {
		t.Fatal("no points")
	}
	if len(f.Nodes) != len(f.MflopsPer) {
		t.Fatal("length mismatch")
	}
	if f.MeanBeyond64 > 0 && f.MeanBeyond64 > f.MeanUpTo64/2 {
		t.Errorf("no collapse beyond 64: %.1f vs %.1f", f.MeanBeyond64, f.MeanUpTo64)
	}
	// Peak per-node rate ~40 Mflops (tuned codes), certainly under 70.
	if f.PeakMflops < 20 || f.PeakMflops > 75 {
		t.Errorf("peak per-node = %.1f, want ~40", f.PeakMflops)
	}
	if !strings.Contains(f.Render(), "Figure 3") {
		t.Fatal("render broken")
	}
}

func TestFigure4(t *testing.T) {
	f := ComputeFigure4(campaign(t))
	if len(f.JobMflops) < 30 {
		t.Fatalf("only %d 16-node jobs", len(f.JobMflops))
	}
	// Paper: average 320 Mflops with spread ~200 (bands 180..450, 80..330).
	if f.Mean < 180 || f.Mean > 450 {
		t.Errorf("16-node mean = %.0f, want ~320", f.Mean)
	}
	if f.Std < 60 || f.Std > 330 {
		t.Errorf("16-node std = %.0f, want ~200", f.Std)
	}
	// No improvement trend: drift over the whole history stays well under
	// the mean level.
	if math.Abs(f.TrendPerJob)*float64(len(f.JobMflops)) > f.Mean {
		t.Errorf("trend %.3f Mflops/job too steep", f.TrendPerJob)
	}
	if !strings.Contains(f.Render(), "Figure 4") {
		t.Fatal("render broken")
	}
}

func TestFigure5(t *testing.T) {
	f := ComputeFigure5(campaign(t))
	if len(f.Ratio) == 0 {
		t.Fatal("no points")
	}
	if f.Corr >= 0 {
		t.Errorf("correlation = %.2f, want negative (Figure 5's shape)", f.Corr)
	}
	for _, r := range f.Ratio {
		if r < 0 || r > 5 {
			t.Fatalf("ratio %v outside the paper's axis", r)
		}
	}
	if !strings.Contains(f.Render(), "Figure 5") {
		t.Fatal("render broken")
	}
}

func TestRenderAllContainsEveryFigure(t *testing.T) {
	s := RenderAll(campaign(t))
	for _, fig := range []string{"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5"} {
		if !strings.Contains(s, fig) {
			t.Errorf("RenderAll missing %s", fig)
		}
	}
}

func TestIOWaitWhatIf(t *testing.T) {
	w := MeasureIOWaitWhatIf(3)
	// The paging node: Figure 5's inference works (sys/user >> 1) AND the
	// direct measurement shows a dominant wait fraction.
	if w.Paging.NASSysUserFXU < 1 {
		t.Errorf("paging NAS sys/user = %.2f, want > 1", w.Paging.NASSysUserFXU)
	}
	if w.Paging.WaitFraction < 0.3 || w.Paging.WaitFraction > 1.0 {
		t.Errorf("paging wait fraction = %.2f, want dominant", w.Paging.WaitFraction)
	}
	if w.Paging.PageIns == 0 {
		t.Error("paging scenario recorded no page-ins")
	}
	// The MPI job: nearly invisible to the NAS selection (only cold
	// zero-fill faults put anything in system mode — no paging signature),
	// but the I/O-wait selection measures a real wait share.
	if w.MPI.NASSysUserFXU > 0.5 {
		t.Errorf("MPI NAS sys/user = %.2f, want well under 1 (no paging signature)", w.MPI.NASSysUserFXU)
	}
	if w.MPI.NASSysUserFXU >= w.Paging.NASSysUserFXU/10 {
		t.Errorf("MPI (%.2f) should be far below paging (%.2f) on the NAS axis",
			w.MPI.NASSysUserFXU, w.Paging.NASSysUserFXU)
	}
	if w.MPI.WaitFraction < 0.05 || w.MPI.WaitFraction > 0.9 {
		t.Errorf("MPI wait fraction = %.2f, want a visible straggler share", w.MPI.WaitFraction)
	}
	if w.MPI.PageIns != 0 {
		t.Errorf("MPI scenario paged (%d page-ins)?", w.MPI.PageIns)
	}
	s := w.Render()
	if !strings.Contains(s, "What-if") || !strings.Contains(s, "io-wait frac") {
		t.Fatalf("render broken:\n%s", s)
	}
}

func TestIOWaitWhatIfDeterministic(t *testing.T) {
	a := MeasureIOWaitWhatIf(5)
	b := MeasureIOWaitWhatIf(5)
	if a != b {
		t.Fatalf("what-if not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestNPBSuite(t *testing.T) {
	s := MeasureNPBSuite(1, 200_000)
	if len(s.Rows) != 6 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	byName := map[string]NPBRow{}
	for _, r := range s.Rows {
		byName[r.Name] = r
	}
	// Orderings the benchmark literature pins: BT fastest of the solvers,
	// CG slowest of everything, FT and CG the memory-hostile extremes.
	if !(byName["bt"].MflopsPerCPU > byName["sp"].MflopsPerCPU &&
		byName["sp"].MflopsPerCPU > byName["lu"].MflopsPerCPU) {
		t.Errorf("solver ordering broken: bt %.1f sp %.1f lu %.1f",
			byName["bt"].MflopsPerCPU, byName["sp"].MflopsPerCPU, byName["lu"].MflopsPerCPU)
	}
	for _, n := range []string{"bt", "sp", "lu", "mg", "ft"} {
		if byName["cg"].MflopsPerCPU >= byName[n].MflopsPerCPU {
			t.Errorf("cg (%.1f) should be slowest, but beats %s (%.1f)",
				byName["cg"].MflopsPerCPU, n, byName[n].MflopsPerCPU)
		}
	}
	if byName["ft"].TLBMissRatio < 2*byName["bt"].TLBMissRatio {
		t.Errorf("ft TLB ratio %.5f not elevated vs bt %.5f",
			byName["ft"].TLBMissRatio, byName["bt"].TLBMissRatio)
	}
	if byName["cg"].CacheMissRatio < 0.05 {
		t.Errorf("cg cache ratio = %.4f, want gather-dominated", byName["cg"].CacheMissRatio)
	}
	if !strings.Contains(s.Render(), "NPB suite") {
		t.Fatal("render broken")
	}
}

func TestFigure4ForOtherNodeCounts(t *testing.T) {
	r := campaign(t)
	// "Similar trends occur for other processor counts": the 8- and
	// 32-node histories must also be flat and dispersed.
	for _, n := range []int{8, 32} {
		f := ComputeFigure4For(r, n)
		if len(f.JobMflops) < 10 {
			t.Fatalf("only %d %d-node jobs", len(f.JobMflops), n)
		}
		if f.Mean <= 0 {
			t.Fatalf("%d-node mean = %v", n, f.Mean)
		}
		if math.Abs(f.TrendPerJob)*float64(len(f.JobMflops)) > f.Mean {
			t.Errorf("%d-node history trends (%.3f/job)", n, f.TrendPerJob)
		}
		// Whole-job rate scales roughly with node count vs the 16-node mean.
		f16 := ComputeFigure4For(r, 16)
		ratio := f.Mean / f16.Mean * 16 / float64(n)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%d-node per-node scaling off: %.2f", n, ratio)
		}
	}
	// The generic ComputeFigure4 is the 16-node instance.
	a, b := ComputeFigure4(r), ComputeFigure4For(r, 16)
	if a.Mean != b.Mean || len(a.JobMflops) != len(b.JobMflops) {
		t.Fatal("ComputeFigure4 != ComputeFigure4For(16)")
	}
}

func TestUserReport(t *testing.T) {
	r := campaign(t)
	rep := ComputeUserReport(r)
	if len(rep.Rows) == 0 {
		t.Fatal("no users")
	}
	totalJobs := 0
	for i, row := range rep.Rows {
		totalJobs += row.Jobs
		if row.Jobs <= 0 || row.NodeSeconds <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if i > 0 && row.NodeSeconds > rep.Rows[i-1].NodeSeconds {
			t.Fatal("rows not sorted by node-seconds")
		}
	}
	if totalJobs != len(r.Records) {
		t.Fatalf("user jobs %d != records %d", totalJobs, len(r.Records))
	}
	s := rep.Render(5)
	if !strings.Contains(s, "node-seconds") || !strings.Contains(s, "more users") {
		t.Fatalf("render broken:\n%s", s)
	}
	if strings.Count(s, "\n") > 9 {
		t.Fatalf("top-5 render too long:\n%s", s)
	}
}
