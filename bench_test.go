// Package repro_test is the top-level benchmark harness: one benchmark per
// table and figure of Bergeron's SC'98 paper, plus ablation benches for the
// design choices DESIGN.md calls out. Each table/figure bench regenerates
// its artifact from a shared campaign and reports the headline quantity as
// a benchmark metric next to the paper's value, and prints the full
// rendering once.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/hpm"
	"repro/internal/kernels"
	"repro/internal/node"
	"repro/internal/pbs"
	"repro/internal/power2"
	"repro/internal/profile"
	"repro/internal/rs2hpm/loadtest"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The benchmark campaign: long enough for every figure to be populated,
// short enough to keep `go test -bench` pleasant. Built once.
var (
	campOnce sync.Once
	campRes  workload.Result
	campStd  profile.Standard
)

func campaign(b *testing.B) workload.Result {
	b.Helper()
	campOnce.Do(func() {
		campStd = profile.MeasureStandardWorkers(1, runtime.NumCPU())
		cfg := workload.DefaultConfig(1)
		cfg.Days = 40
		campRes = workload.NewCampaign(cfg, workload.DefaultMix(campStd)).Run()
	})
	return campRes
}

// benchWorkerCounts is the parallelism axis for the fleet-shard and
// profile-measurement benches: serial plus full-parallel, collapsed to
// one point on a 1-CPU machine.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// printOnce prints an artifact exactly once across a bench's iterations.
var printGuards sync.Map

func printOnce(name, text string) {
	if _, loaded := printGuards.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTable1CounterSelection(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = analysis.RenderTable1()
	}
	printOnce("table1", s)
}

func BenchmarkTable2MajorRates(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var t2 analysis.Table2
	for i := 0; i < b.N; i++ {
		t2 = analysis.ComputeTable2(res)
	}
	b.ReportMetric(t2.AvgMflops, "Mflops/node[paper=17.4]")
	b.ReportMetric(t2.AvgMips, "Mips/node[paper=45.7]")
	b.ReportMetric(t2.AvgMops, "Mops/node[paper=48.3]")
	printOnce("table2", t2.Render())
}

func BenchmarkTable3RateBreakdown(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var t3 analysis.Table3
	for i := 0; i < b.N; i++ {
		t3 = analysis.ComputeTable3(res)
	}
	b.ReportMetric(100*t3.FMAFraction, "fma-share-%[paper=54]")
	b.ReportMetric(t3.FPUAsymmetry, "fpu0/fpu1[paper=1.7]")
	b.ReportMetric(100*t3.CacheRatio, "cache-miss-%[paper=1.0]")
	b.ReportMetric(100*t3.TLBRatio, "tlb-miss-%[paper=0.1]")
	printOnce("table3", t3.Render())
}

func BenchmarkTable4MemoryHierarchy(b *testing.B) {
	res := campaign(b)
	seq := analysis.MeasureSequentialRow(1, 200_000)
	bt := analysis.MeasureBT49Row(analysis.DefaultBT49())
	b.ResetTimer()
	var t4 analysis.Table4
	for i := 0; i < b.N; i++ {
		t4 = analysis.ComputeTable4(res, seq, bt)
	}
	b.ReportMetric(t4.BT49.MflopsPerCPU, "bt49-Mflops/cpu[paper=44]")
	b.ReportMetric(100*t4.Sequential.CacheMissRatio, "seq-cache-%[paper=3]")
	b.ReportMetric(100*t4.Workload.CacheMissRatio, "workload-cache-%[paper=1]")
	printOnce("table4", t4.Render())
}

func BenchmarkFigure1SystemHistory(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var f analysis.Figure1Data
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure1(res)
	}
	b.ReportMetric(f.MeanGflops, "mean-Gflops[paper=1.3]")
	b.ReportMetric(100*f.MeanUtil, "mean-util-%[paper=64]")
	printOnce("fig1", f.Render())
}

func BenchmarkFigure2WalltimeByNodes(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var f analysis.Figure2Data
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure2(res)
	}
	b.ReportMetric(float64(f.PeakNodes), "peak-nodes[paper=16]")
	printOnce("fig2", f.Render())
}

func BenchmarkFigure3PerfByNodes(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var f analysis.Figure3Data
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure3(res)
	}
	b.ReportMetric(f.MeanUpTo64, "Mflops/node<=64")
	b.ReportMetric(f.MeanBeyond64, "Mflops/node>64[collapse]")
	printOnce("fig3", f.Render())
}

func BenchmarkFigure4SixteenNodeHistory(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var f analysis.Figure4Data
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure4(res)
	}
	b.ReportMetric(f.Mean, "job-Mflops[paper=320]")
	b.ReportMetric(f.Std, "spread[paper=200]")
	printOnce("fig4", f.Render())
}

func BenchmarkFigure5SystemIntervention(b *testing.B) {
	res := campaign(b)
	b.ResetTimer()
	var f analysis.Figure5Data
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure5(res)
	}
	b.ReportMetric(f.Corr, "corr[paper<0]")
	printOnce("fig5", f.Render())
}

// --- Ablations -----------------------------------------------------------

// measureKernel runs a kernel on a CPU configuration and reduces counters,
// through the memoized store: after the first iteration warms the entry,
// the ablation benches measure the rate derivation, not the microsim.
func measureKernel(name string, cfg power2.Config, n uint64) hpm.Rates {
	k, ok := kernels.ByName(name)
	if !ok {
		panic("bench: unknown kernel " + name)
	}
	m := profile.DefaultStore.Measure(k, cfg, n)
	return hpm.UserRates(m.Delta, m.Seconds)
}

// BenchmarkAblationFPUIssuePolicy shows the FPU0-first issue rule is what
// produces the paper's 1.7 asymmetry: round-robin flattens it to 1.0.
func BenchmarkAblationFPUIssuePolicy(b *testing.B) {
	var real, ablated hpm.Rates
	for i := 0; i < b.N; i++ {
		real = measureKernel("cfd", power2.Config{Seed: 1}, 100_000)
		ablated = measureKernel("cfd", power2.Config{Seed: 1, Policy: power2.RoundRobin}, 100_000)
	}
	b.ReportMetric(real.FPUAsymmetry(), "fpu0/fpu1-real[paper=1.7]")
	b.ReportMetric(ablated.FPUAsymmetry(), "fpu0/fpu1-roundrobin[=1.0]")
}

// BenchmarkAblationQuadCounting shows the quad-counts-as-one monitor
// convention is why the paper's flops/memref reads ~0.5-0.6: counting the
// quad's two doublewords separately inflates the memory instruction count.
func BenchmarkAblationQuadCounting(b *testing.B) {
	var real, ablated hpm.Rates
	for i := 0; i < b.N; i++ {
		real = measureKernel("cfd", power2.Config{Seed: 1}, 100_000)
		ablated = measureKernel("cfd", power2.Config{Seed: 1, QuadCountsAsTwo: true}, 100_000)
	}
	b.ReportMetric(real.FlopsPerMemRef(), "flops/memref-quad1")
	b.ReportMetric(ablated.FlopsPerMemRef(), "flops/memref-quad2")
}

// BenchmarkAblationCacheReplacement compares LRU (the POWER2) with random
// replacement in the 4-way D-cache on the workload kernel.
func BenchmarkAblationCacheReplacement(b *testing.B) {
	lruCfg := power2.Config{Seed: 1}
	rndCache := cacheConfigRandom()
	rndCfg := power2.Config{Seed: 1, DCache: &rndCache}
	var lru, rnd hpm.Rates
	for i := 0; i < b.N; i++ {
		lru = measureKernel("cfd", lruCfg, 100_000)
		rnd = measureKernel("cfd", rndCfg, 100_000)
	}
	b.ReportMetric(100*lru.CacheMissRatio(), "miss-%-lru")
	b.ReportMetric(100*rnd.CacheMissRatio(), "miss-%-random")
}

// BenchmarkAblationPaging contrasts the oversubscribed kernel on a starved
// node (disk page-ins) with a well-provisioned one (zero-fill only): the
// Figure 5 signature collapses without the paging model.
func BenchmarkAblationPaging(b *testing.B) {
	var starved, healthy float64
	for i := 0; i < b.N; i++ {
		k, _ := kernels.ByName("paging")
		small := profile.DefaultStore.Measure(k, power2.Config{Seed: 1, MemoryBytes: 32 << 20}, 700_000)
		starved = hpm.SystemUserFXURatio(small.Delta)
		big := profile.DefaultStore.Measure(k, power2.Config{Seed: 1, MemoryBytes: 1 << 30}, 700_000)
		healthy = hpm.SystemUserFXURatio(big.Delta)
	}
	b.ReportMetric(starved, "sys/user-fxu-starved")
	b.ReportMetric(healthy, "sys/user-fxu-healthy")
}

// BenchmarkAblationDrainPolicy measures what the queue-drain rule buys the
// >64-node jobs the paper discusses: without draining, backfill starves
// them indefinitely on a busy machine.
func BenchmarkAblationDrainPolicy(b *testing.B) {
	runOnce := func(drainThreshold int) (bigJobWait float64) {
		clock := &simclock.Clock{}
		nodes := make([]*node.Node, 100)
		for i := range nodes {
			nodes[i] = node.New(node.Config{ID: i})
		}
		srv := pbs.New(clock, nodes, pbs.Config{DrainThreshold: drainThreshold})
		// A steady stream of 30-node jobs plus one 80-node job.
		for i := 0; i < 12; i++ {
			at := simclock.Time(float64(i) * 50)
			clock.At(at, func() {
				if _, err := srv.Submit(pbs.Spec{Nodes: 30, WallSeconds: 300, Class: "x"}); err != nil {
					b.Fatal(err)
				}
			})
		}
		clock.At(simclock.Time(10), func() {
			if _, err := srv.Submit(pbs.Spec{Nodes: 80, WallSeconds: 100, Class: "big"}); err != nil {
				b.Fatal(err)
			}
		})
		clock.Run()
		for _, rec := range srv.Records() {
			if rec.Class == "big" {
				return (rec.StartAt - rec.SubmitAt).Seconds()
			}
		}
		return -1 // never started
	}
	var withDrain, withoutDrain float64
	for i := 0; i < b.N; i++ {
		withDrain = runOnce(64)
		withoutDrain = runOnce(150) // threshold above any job: pure backfill
	}
	b.ReportMetric(withDrain, "bigjob-wait-s-drain")
	b.ReportMetric(withoutDrain, "bigjob-wait-s-nodrain")
}

// cacheConfigRandom builds the SP2 D-cache geometry with random
// replacement (the ablation variant).
func cacheConfigRandom() cache.Config {
	return cache.Config{
		SizeBytes:     256 * 1024,
		LineBytes:     256,
		Ways:          4,
		Policy:        cache.Random,
		WriteAllocate: true,
	}
}

// --- Whole-system benches ------------------------------------------------

// BenchmarkCPUSimulation measures raw instruction-level simulation speed.
func BenchmarkCPUSimulation(b *testing.B) {
	k, _ := kernels.ByName("cfd")
	cpu := power2.New(power2.Config{Seed: 1})
	s := k.New(1)
	b.ResetTimer()
	cpu.RunLimited(s, uint64(b.N))
}

// benchCampaignDay is the shared body of the campaign-day benches: one
// simulated day of the full campaign (job generation, PBS scheduling,
// profile extrapolation, daily reduction). The sub-benchmark name is the
// one BENCH_campaign.json and BENCH_gates.json key on.
func benchCampaignDay(b *testing.B, withTelemetry bool) {
	campaign(b) // ensure profiles measured
	telemetry.SetEnabled(withTelemetry)
	defer telemetry.SetEnabled(true)
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := workload.DefaultConfig(uint64(i) + 2)
			cfg.Days = 1
			workload.NewCampaign(cfg, workload.DefaultMix(campStd)).Run()
		}
	})
}

// BenchmarkCampaignDay runs with telemetry disabled: the baseline half of
// the hpmtel overhead contract.
func BenchmarkCampaignDay(b *testing.B) {
	benchCampaignDay(b, false)
}

// BenchmarkCampaignDayTelemetry is the identical workload with hpmtel
// observing it; BENCH_gates.json fails it beyond 1.5× BenchmarkCampaignDay.
// The two benches share one body so the comparison can never drift.
func BenchmarkCampaignDayTelemetry(b *testing.B) {
	benchCampaignDay(b, true)
}

// BenchmarkFleetCampaign measures the sharded multi-cluster engine: a
// fleet of six single-day clusters partitioned across shards, streamed
// through the canonical-order merge (internal/fleet). The Result is
// bit-identical at every shard count, so the axis is pure wall-clock —
// near-linear scaling where the host has CPUs to give, collapsed to one
// point on a 1-CPU machine (the benchWorkerCounts convention).
func BenchmarkFleetCampaign(b *testing.B) {
	campaign(b) // ensure profiles measured
	for _, shards := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				members := make([]fleet.Member, 6)
				for c := range members {
					cfg := workload.DefaultConfig(workload.ClusterSeed(uint64(i)+2, c))
					cfg.Days = 1
					members[c] = fleet.Member{Config: cfg, Mix: workload.DefaultMix(campStd)}
				}
				if _, err := fleet.Run(members, fleet.Options{Shards: shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureStandard measures the six-kernel profile stage as the
// campaign runs it: through the memoized store, which turns repeat
// measurements of a seed into cache hits (the seeds repeat across the
// harness's b.N ramp-up, so steady state is mostly the hit path — the
// production shape for cmd/experiments and the ablations).
func BenchmarkMeasureStandard(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				profile.MeasureStandardWorkers(uint64(i)+1, workers)
			}
		})
	}
}

// BenchmarkMeasureStandardCold bypasses the store entirely, tracking the
// raw microsim cost of the six-kernel stage (the number the hot-path
// optimizations move; the store cannot hide a regression here).
func BenchmarkMeasureStandardCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profile.MeasureStandardStore(nil, uint64(i)+1, 1)
	}
}

// BenchmarkCollectorThroughput measures the sustained collection service
// end to end: a healthy in-process fleet (4 daemons x 8 nodes) swept by
// the pooled, batched collector over loopback TCP, every sample landing
// in the log through the bounded ingest queue. One iteration is eight
// fleet-wide sweeps (8 x 32 node reads, so the single-pass `make bench`
// timing averages away loopback jitter); the samples/s and wire bytes/s
// metrics are the service's sustained rate, and the ledger still has to
// cross-foot exactly at the end. Gated in BENCH_gates.json.
func BenchmarkCollectorThroughput(b *testing.B) {
	h, err := loadtest.New(loadtest.Spec{
		Healthy: 4, NodesPerDaemon: 8,
		Collectors: 4, Batch: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	// Wire volume comes from the process-wide client byte counters, so
	// measure deltas across the timed region.
	rx := telemetry.Default.Counter("rs2hpm.client.bytes_rx")
	tx := telemetry.Default.Counter("rs2hpm.client.bytes_tx")
	rx0, tx0 := rx.Value(), tx.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 8; s++ {
			if err := h.Sweep(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	wire := float64(rx.Value() - rx0 + tx.Value() - tx0)
	h.Close()
	if err := h.Verify(); err != nil {
		b.Fatal(err)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(h.Ledger().Captured)/secs, "samples/s")
		b.ReportMetric(wire/secs, "bytes/s")
	}
}

// BenchmarkWhatIfIOWait runs the paper's closing recommendation — a
// counter selection reporting I/O wait — against the NAS selection on the
// two pathologies the campaign could only infer.
func BenchmarkWhatIfIOWait(b *testing.B) {
	var w analysis.IOWaitWhatIf
	for i := 0; i < b.N; i++ {
		w = analysis.MeasureIOWaitWhatIf(1)
	}
	b.ReportMetric(100*w.Paging.WaitFraction, "paging-iowait-%")
	b.ReportMetric(100*w.MPI.WaitFraction, "mpi-iowait-%")
	printOnce("whatif", w.Render())
}

// BenchmarkNPBSuite measures the full NAS Parallel Benchmark character set
// on the CPU model (the NAS-96-010 extension of Table 4's BT reference).
func BenchmarkNPBSuite(b *testing.B) {
	var s analysis.NPBSuite
	for i := 0; i < b.N; i++ {
		s = analysis.MeasureNPBSuite(1, 200_000)
	}
	for _, r := range s.Rows {
		b.ReportMetric(r.MflopsPerCPU, r.Name+"-Mflops")
	}
	printOnce("npb", s.Render())
}

// BenchmarkAblationCheckpointing implements the capability the paper says
// the real system lacked ("System administrators could not checkpoint
// MPI/PVM jobs and had to rely upon draining the queues") and measures
// what it buys an 80-node job on a busy machine.
func BenchmarkAblationCheckpointing(b *testing.B) {
	runOnce := func(checkpoint bool) (bigJobWait float64, preemptions int) {
		clock := &simclock.Clock{}
		nodes := make([]*node.Node, 100)
		for i := range nodes {
			nodes[i] = node.New(node.Config{ID: i})
		}
		srv := pbs.New(clock, nodes, pbs.Config{DrainThreshold: 64, Checkpointing: checkpoint})
		for i := 0; i < 12; i++ {
			at := simclock.Time(float64(i) * 50)
			clock.At(at, func() {
				if _, err := srv.Submit(pbs.Spec{Nodes: 30, WallSeconds: 300, Class: "x", MemoryPerNodeBytes: 1 << 20}); err != nil {
					b.Fatal(err)
				}
			})
		}
		clock.At(simclock.Time(10), func() {
			if _, err := srv.Submit(pbs.Spec{Nodes: 80, WallSeconds: 100, Class: "big"}); err != nil {
				b.Fatal(err)
			}
		})
		clock.Run()
		for _, rec := range srv.Records() {
			if rec.Class == "big" {
				return (rec.StartAt - rec.SubmitAt).Seconds(), srv.Preemptions()
			}
		}
		return -1, srv.Preemptions()
	}
	var drainWait, ckptWait float64
	var preempts int
	for i := 0; i < b.N; i++ {
		drainWait, _ = runOnce(false)
		ckptWait, preempts = runOnce(true)
	}
	b.ReportMetric(drainWait, "bigjob-wait-s-drain")
	b.ReportMetric(ckptWait, "bigjob-wait-s-checkpoint")
	b.ReportMetric(float64(preempts), "preemptions")
}
