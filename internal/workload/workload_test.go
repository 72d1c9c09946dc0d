package workload

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/hpm"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/stats"
)

var (
	stdOnce sync.Once
	stdSet  profile.Standard
)

func std(t *testing.T) profile.Standard {
	t.Helper()
	stdOnce.Do(func() { stdSet = profile.MeasureStandard(1) })
	return stdSet
}

// shortCampaign runs a reduced but statistically meaningful campaign.
func shortCampaign(t *testing.T, days int, seed uint64) Result {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Days = days
	return NewCampaign(cfg, DefaultMix(std(t))).Run()
}

var (
	resOnce sync.Once
	res     Result
)

func campaign(t *testing.T) Result {
	t.Helper()
	resOnce.Do(func() { res = shortCampaign(t, 40, 7) })
	return res
}

func TestCampaignHeadlineNumbers(t *testing.T) {
	r := campaign(t)
	if len(r.Days) != 40 {
		t.Fatalf("days = %d", len(r.Days))
	}
	var g, u []float64
	for _, d := range r.Days {
		g = append(g, d.Gflops())
		u = append(u, d.Utilization(r.Config.Nodes))
	}
	// Paper: ~1.3 Gflops daily average (3% of the 38.4 Gflops peak).
	if m := stats.Mean(g); m < 0.7 || m > 2.2 {
		t.Errorf("mean daily Gflops = %v, want ~1.3", m)
	}
	// Paper: 64% average utilisation, max 95%.
	if m := stats.Mean(u); m < 0.4 || m > 0.85 {
		t.Errorf("mean utilization = %v, want ~0.64", m)
	}
	for _, x := range u {
		if x < 0 || x > 1.0001 {
			t.Fatalf("utilization out of range: %v", x)
		}
	}
	// The maximum 15-minute rate exceeds the best daily rate.
	if r.MaxGflops15min < stats.Max(g) {
		t.Errorf("max 15-min rate %v below max daily %v", r.MaxGflops15min, stats.Max(g))
	}
	if len(r.Records) == 0 {
		t.Fatal("no batch records")
	}
}

func TestGoodDaysMatchTable2Band(t *testing.T) {
	r := campaign(t)
	var goodPerNode []float64
	for _, d := range r.Days {
		if d.Gflops() > 2.0 {
			goodPerNode = append(goodPerNode, d.PerNodeRates(r.Config.Nodes).MflopsAll)
		}
	}
	if len(goodPerNode) == 0 {
		t.Skip("no >2 Gflops days in this short window")
	}
	m := stats.Mean(goodPerNode)
	// Paper Table 2: 17.4 +/- 3.8 Mflops per node.
	if m < 12 || m > 24 {
		t.Errorf("good-day per-node Mflops = %v, want ~17.4", m)
	}
}

func TestSixteenNodeJobsDominateWalltime(t *testing.T) {
	r := campaign(t)
	byNodes := map[int]float64{}
	for _, rec := range r.Records {
		byNodes[rec.NodesUsed] += rec.WallSeconds
	}
	best, bestW := 0, 0.0
	var over64 float64
	var total float64
	for n, w := range byNodes {
		total += w
		if w > bestW {
			best, bestW = n, w
		}
		if n > 64 {
			over64 += w
		}
	}
	if best != 16 {
		t.Errorf("walltime peak at %d nodes, want 16 (Figure 2)", best)
	}
	if over64/total > 0.1 {
		t.Errorf(">64-node jobs consumed %.1f%% of walltime, want ~0 (Figure 2)", 100*over64/total)
	}
}

func TestPerNodeRateCollapsesBeyond64(t *testing.T) {
	r := campaign(t)
	var small, large []float64
	for _, rec := range r.Records {
		mf := rec.PerNodeRates().MflopsAll
		if rec.NodesUsed > 64 {
			large = append(large, mf)
		} else if rec.NodesUsed >= 8 {
			small = append(small, mf)
		}
	}
	if len(large) == 0 {
		t.Skip("no >64-node jobs completed in window")
	}
	if stats.Mean(large) > stats.Mean(small)/2 {
		t.Errorf("no collapse: >64-node jobs at %.1f vs %.1f Mflops/node (Figure 3)",
			stats.Mean(large), stats.Mean(small))
	}
}

func TestLargeJobsAreSystemDominated(t *testing.T) {
	r := campaign(t)
	var large, small []float64
	for _, rec := range r.Records {
		ratio := rec.SystemUserFXURatio()
		if rec.NodesUsed > 64 {
			large = append(large, ratio)
		} else {
			small = append(small, ratio)
		}
	}
	if len(large) == 0 {
		t.Skip("no >64-node jobs in window")
	}
	// Paper: for >64-node jobs, system-mode FXU+ICU instructions exceeded
	// user-mode ones. Most large jobs must show ratio > 1.
	over1 := 0
	for _, x := range large {
		if x > 1 {
			over1++
		}
	}
	if float64(over1)/float64(len(large)) < 0.5 {
		t.Errorf("only %d/%d large jobs have system/user > 1", over1, len(large))
	}
	if stats.Mean(large) <= stats.Mean(small) {
		t.Errorf("large jobs not more system-bound: %.2f vs %.2f",
			stats.Mean(large), stats.Mean(small))
	}
}

func TestBadDaysCorrelateWithSystemIntervention(t *testing.T) {
	// Figure 5: high system/user FXU ratio on days with poor performance.
	r := campaign(t)
	var perf, ratio []float64
	for _, d := range r.Days {
		if d.BusyNodeSeconds == 0 {
			continue
		}
		perf = append(perf, d.PerNodeRates(r.Config.Nodes).MflopsAll)
		ratio = append(ratio, d.SystemUserFXURatio())
	}
	if corr := stats.Correlation(ratio, perf); corr >= 0 {
		t.Errorf("per-node performance should anticorrelate with system intervention, corr = %v", corr)
	}
}

func TestNoPerformanceTrendOverTime(t *testing.T) {
	// Paper: "no obvious trend toward increased performance as time passes".
	r := campaign(t)
	var idx, g []float64
	for i, d := range r.Days {
		idx = append(idx, float64(i))
		g = append(g, d.Gflops())
	}
	slope, _ := stats.LinearFit(idx, g)
	mean := stats.Mean(g)
	// The trend over the window must be small relative to the mean level.
	if math.Abs(slope)*float64(len(g)) > mean {
		t.Errorf("drift %v Gflops over window vs mean %v", slope*float64(len(g)), mean)
	}
}

func TestDMATrafficInTable3Band(t *testing.T) {
	r := campaign(t)
	var reads, writes []float64
	for _, d := range r.Days {
		if d.Gflops() < 1.0 {
			continue
		}
		rr := d.PerNodeRates(r.Config.Nodes)
		reads = append(reads, rr.DMAReadM)
		writes = append(writes, rr.DMAWriteM)
	}
	if len(reads) == 0 {
		t.Skip("no active days")
	}
	// Paper Table 3: 0.024 / 0.017 Mtransfers per second, reads > writes.
	mr, mw := stats.Mean(reads), stats.Mean(writes)
	if mr < 0.004 || mr > 0.08 {
		t.Errorf("DMA reads = %v M/s, want ~0.024", mr)
	}
	if mw < 0.003 || mw > 0.06 {
		t.Errorf("DMA writes = %v M/s, want ~0.017", mw)
	}
	if mr <= mw {
		t.Errorf("reads (%v) should exceed writes (%v): disk output asymmetry", mr, mw)
	}
}

func TestDeterministicCampaign(t *testing.T) {
	a := shortCampaign(t, 6, 99)
	b := shortCampaign(t, 6, 99)
	if len(a.Days) != len(b.Days) || len(a.Records) != len(b.Records) {
		t.Fatal("campaign shape differs between runs")
	}
	for i := range a.Days {
		if a.Days[i].Delta != b.Days[i].Delta {
			t.Fatalf("day %d deltas differ", i)
		}
		if a.Days[i].BusyNodeSeconds != b.Days[i].BusyNodeSeconds {
			t.Fatalf("day %d busy seconds differ", i)
		}
	}
	if a.MaxGflops15min != b.MaxGflops15min {
		t.Fatal("max rates differ")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := shortCampaign(t, 4, 1)
	b := shortCampaign(t, 4, 2)
	same := true
	for i := range a.Days {
		if a.Days[i].Delta != b.Days[i].Delta {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestRecordFilterDropsShortJobs(t *testing.T) {
	r := campaign(t)
	for _, rec := range r.Records {
		if rec.WallSeconds < r.Config.MinRecordWall {
			t.Fatalf("record under the %vs filter: %v", r.Config.MinRecordWall, rec.WallSeconds)
		}
	}
}

func TestJobProfileComposition(t *testing.T) {
	mix := DefaultMix(std(t))
	production := mix.ClientNamed("production-cfd").Class
	p := production.jobProfile(1.0)
	// Duty-cycled: the in-job Mflops must be ComputeDuty x crunch.
	want := production.Crunch.Mflops * production.ComputeDuty
	if math.Abs(p.Mflops-want) > 1e-9 {
		t.Fatalf("in-job Mflops = %v, want %v", p.Mflops, want)
	}
	// DMA rates present, reads > writes (disk output asymmetry).
	rd := p.EventsPerSec[hpm.User][hpm.EvDMARead]
	wr := p.EventsPerSec[hpm.User][hpm.EvDMAWrite]
	if rd <= wr || wr <= 0 {
		t.Fatalf("DMA composition wrong: %v/%v", rd, wr)
	}
	// Comm overlay adds FXU work beyond the duty-scaled crunch.
	fxuCrunch := production.Crunch.EventsPerSec[hpm.User][hpm.EvFXU0Instr] * production.ComputeDuty
	if p.EventsPerSec[hpm.User][hpm.EvFXU0Instr] <= fxuCrunch {
		t.Fatal("comm overlay missing from FXU rate")
	}
}

func TestDayAccessors(t *testing.T) {
	var d Day
	d.Delta.Counts[hpm.User][hpm.EvFPU0Add] = 86400 * 1e6 // 1 Mflop/s for a day
	d.BusyNodeSeconds = 86400 * 72
	if g := d.Gflops(); math.Abs(g-0.001) > 1e-12 {
		t.Fatalf("Gflops = %v", g)
	}
	if u := d.Utilization(144); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("Utilization = %v", u)
	}
}

// TestBadSamplePeriodPanics: a period that is not a whole number of
// seconds dividing 86400 stops the campaign with the named message, never
// an integer divide by zero or a run of short days.
func TestBadSamplePeriodPanics(t *testing.T) {
	for _, period := range []float64{1000, 900.5, 0.5} {
		cfg := DefaultConfig(1)
		cfg.Days = 1
		cfg.SamplePeriodSeconds = period
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "must divide a day") {
					t.Errorf("period %v: panic %q, want the sample-period message", period, msg)
				}
			}()
			NewCampaign(cfg, DefaultMix(std(t))).Run()
		}()
	}
}

func TestClassForLargeJobsAvoidsStandardMix(t *testing.T) {
	cfg := DefaultConfig(3)
	g := NewGenerator(cfg, DefaultMix(std(t))).(*mixGenerator)
	rnd := rng.New(3)
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[g.mix.Clients[g.classFor(rnd, 96, false, 0)].Class.Name]++
	}
	if counts["paging"] < 400 {
		t.Errorf("paging share for >64-node jobs = %d/1000, want majority", counts["paging"])
	}
	if counts["tuned-cfd"] > 0 || counts["npb-bench"] > 0 {
		t.Error(">64-node jobs drew tuned/bench classes")
	}
}

func TestWeekendDemandDips(t *testing.T) {
	r := campaign(t)
	var weekday, weekend []float64
	for _, d := range r.Days {
		u := d.Utilization(r.Config.Nodes)
		if dow := d.Index % 7; dow == 5 || dow == 6 {
			weekend = append(weekend, u)
		} else {
			weekday = append(weekday, u)
		}
	}
	if len(weekend) < 5 || len(weekday) < 10 {
		t.Skip("window too short")
	}
	if stats.Mean(weekend) >= stats.Mean(weekday) {
		t.Errorf("weekend utilization (%.2f) not below weekday (%.2f)",
			stats.Mean(weekend), stats.Mean(weekday))
	}
}
