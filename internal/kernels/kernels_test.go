package kernels

import (
	"testing"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/power2"
)

// measure runs n instructions of the kernel on a fresh SP2 CPU and returns
// the architectural stats plus counter-derived rates over the run.
func measure(t *testing.T, k Kernel, n uint64) (power2.RunStats, hpm.Rates) {
	t.Helper()
	cpu := power2.New(power2.Config{Seed: 1})
	st := cpu.RunLimited(k.New(1), n)
	d := hpm.Sub(hpm.Snapshot{}, cpu.Monitor().Snapshot())
	r := hpm.UserRates(d, cpu.Elapsed())
	return st, r
}

// take fills n instructions from s in blocks of uneven length, fewer if
// the stream ends.
func take(s isa.Stream, n int) []isa.Instr {
	var out []isa.Instr
	var buf [13]isa.Instr
	for len(out) < n {
		k := s.Fill(buf[:min(len(buf), n-len(out))])
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	return out
}

func TestRegistry(t *testing.T) {
	ks := All()
	if len(ks) != 11 {
		t.Fatalf("All() = %d kernels, want 11", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if k.Name == "" || k.Description == "" || k.New == nil {
			t.Fatalf("kernel %+v incomplete", k.Name)
		}
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
	}
	if _, ok := ByName("cfd"); !ok {
		t.Fatal("ByName(cfd) missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) found something")
	}
}

func TestKernelStreamsAreDeterministic(t *testing.T) {
	for _, k := range All() {
		a, b := take(k.New(7), 2000), take(k.New(7), 2000)
		if len(a) != 2000 || len(b) != 2000 {
			t.Fatalf("%s: stream ended early", k.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: streams diverge at %d: %v vs %v", k.Name, i, a[i], b[i])
			}
		}
	}
}

func TestCFDMatchesWorkloadSignature(t *testing.T) {
	st, r := measure(t, CFD(), 400000)

	// These are pure-crunch rates. At the batch-job level the rate is
	// crunch x compute-duty (~0.8, the rest is message passing and load
	// imbalance) and the campaign average further scales by utilization
	// (~0.76), which is how ~28 Mflops crunch presents as the paper's 17.4
	// Mflops/node (28 x 0.8 x 0.76 = 17.0). The crunch band here is 22..40.
	if r.MflopsAll < 22 || r.MflopsAll > 40 {
		t.Errorf("CFD crunch Mflops = %.1f, want ~28 (22..40)", r.MflopsAll)
	}
	// The CFD kernel alone sits a little under the paper's 54% fma share;
	// the pooled workload (which includes fma-rich tuned codes) lands on
	// it. Band 0.36..0.52 for the bare kernel.
	if f := r.FMAFraction(); f < 0.36 || f > 0.52 {
		t.Errorf("CFD fma fraction = %.2f, want ~0.43", f)
	}
	// FPU0/FPU1 asymmetry ~1.7 (band 1.2..2.5).
	if a := r.FPUAsymmetry(); a < 1.2 || a > 2.5 {
		t.Errorf("CFD FPU asymmetry = %.2f, want ~1.7", a)
	}
	// FXU1 carries more than FXU0 (Table 3: 16.5 vs 11.1).
	if r.MipsFXU1 <= r.MipsFXU0 {
		t.Errorf("CFD FXU1 (%.1f) <= FXU0 (%.1f)", r.MipsFXU1, r.MipsFXU0)
	}
	// Cache miss ratio ~1% of FXU instructions (band 0.3..2%).
	if cr := r.CacheMissRatio(); cr < 0.003 || cr > 0.02 {
		t.Errorf("CFD cache miss ratio = %.4f, want ~0.01", cr)
	}
	// TLB miss ratio ~0.1% (band 0.02..0.4%).
	if tr := r.TLBMissRatio(); tr < 0.0002 || tr > 0.004 {
		t.Errorf("CFD TLB miss ratio = %.5f, want ~0.001", tr)
	}
	// Flops per memory instruction well below the matmul's 3.0 (paper:
	// 0.53 with FP refs, 0.63 with the FXU approximation; band 0.3..1.2).
	if fm := r.FlopsPerMemRef(); fm < 0.3 || fm > 1.2 {
		t.Errorf("CFD flops/memref = %.2f, want ~0.6", fm)
	}
	// Divides execute (~3% of flops) but the counter reads zero.
	if r.MflopsDiv != 0 {
		t.Errorf("CFD Mflops-div = %v, want 0 (hardware bug)", r.MflopsDiv)
	}
	if st.Flops == 0 {
		t.Fatal("no architectural flops")
	}
}

func TestMatMulApproachesAchievablePeak(t *testing.T) {
	_, r := measure(t, MatMul(), 400000)
	// Paper: ~240 Mflops for the blocked, unrolled matmul.
	if r.MflopsAll < 200 || r.MflopsAll > 270 {
		t.Errorf("MatMul Mflops = %.1f, want ~240", r.MflopsAll)
	}
	// Better-performing codes do >= 80% of their flops in fma.
	if f := r.FMAFraction(); f < 0.8 {
		t.Errorf("MatMul fma fraction = %.2f, want >= 0.8", f)
	}
	// Register reuse: flops/memref ~3.0.
	if fm := r.FlopsPerMemRef(); fm < 2.2 || fm > 4.5 {
		t.Errorf("MatMul flops/memref = %.2f, want ~3.0", fm)
	}
	// Cache-resident: negligible miss ratio.
	if cr := r.CacheMissRatio(); cr > 0.003 {
		t.Errorf("MatMul cache miss ratio = %.4f, want ~0", cr)
	}
}

func TestBTSitsBetweenWorkloadAndPeak(t *testing.T) {
	_, r := measure(t, BT(), 400000)
	// Paper Table 4 reports 44 Mflops/CPU for BT on 49 CPUs, which
	// includes communication duty; pure crunch is about twice that
	// (44 / ~0.5 duty). Crunch band 70..115.
	if r.MflopsAll < 70 || r.MflopsAll > 115 {
		t.Errorf("BT crunch Mflops = %.1f, want ~90 (70..115)", r.MflopsAll)
	}
	// TLB ratio lower than the workload's (paper: 0.06% vs 0.1%).
	if tr := r.TLBMissRatio(); tr > 0.001 {
		t.Errorf("BT TLB miss ratio = %.5f, want ~0.0006", tr)
	}
	// Cache miss ratio ~1.2%.
	if cr := r.CacheMissRatio(); cr < 0.002 || cr > 0.025 {
		t.Errorf("BT cache miss ratio = %.4f, want ~0.012", cr)
	}
	if f := r.FMAFraction(); f < 0.7 {
		t.Errorf("BT fma fraction = %.2f, want fma-dominated", f)
	}
}

func TestSequentialMatchesThoughtExperiment(t *testing.T) {
	_, r := measure(t, Sequential(), 300000)
	// Paper Table 4: cache miss ratio 3%, TLB 0.2% per memory reference.
	if cr := r.CacheMissRatio(); cr < 0.025 || cr > 0.04 {
		t.Errorf("Sequential cache miss ratio = %.4f, want ~0.031", cr)
	}
	if tr := r.TLBMissRatio(); tr < 0.0015 || tr > 0.0025 {
		t.Errorf("Sequential TLB miss ratio = %.5f, want ~0.002", tr)
	}
}

func TestOrderingAcrossKernels(t *testing.T) {
	// The paper's central comparison: workload << BT << matmul.
	_, cfd := measure(t, CFD(), 200000)
	_, bt := measure(t, BT(), 200000)
	_, mm := measure(t, MatMul(), 200000)
	if !(cfd.MflopsAll < bt.MflopsAll && bt.MflopsAll < mm.MflopsAll) {
		t.Fatalf("ordering violated: cfd=%.1f bt=%.1f matmul=%.1f",
			cfd.MflopsAll, bt.MflopsAll, mm.MflopsAll)
	}
	// And the register-reuse ordering: matmul ~3.0 vs workload ~0.5.
	if mm.FlopsPerMemRef() < 3*cfd.FlopsPerMemRef() {
		t.Fatalf("reuse ordering violated: matmul %.2f vs cfd %.2f",
			mm.FlopsPerMemRef(), cfd.FlopsPerMemRef())
	}
}

func TestPagingThrashesOnSmallNode(t *testing.T) {
	k := Paging()
	cpu := power2.New(power2.Config{Seed: 1, MemoryBytes: 8 << 20}) // small node
	st := cpu.RunLimited(k.New(1), 50000)
	if st.PageFaults == 0 {
		t.Fatal("paging kernel did not fault")
	}
	d := hpm.Sub(hpm.Snapshot{}, cpu.Monitor().Snapshot())
	if ratio := hpm.SystemUserFXURatio(d); ratio <= 1 {
		t.Fatalf("system/user FXU ratio = %.2f, want > 1", ratio)
	}
}

func TestPagingKernelFineOnBigNode(t *testing.T) {
	// The same kernel on a node with enough memory only cold-faults. Run
	// more than two full sweeps of the 256 MB working set (65536 pages x 5
	// instructions per page) so steady state dominates.
	const twoSweeps = 700000
	k := Paging()
	cpu := power2.New(power2.Config{Seed: 1, MemoryBytes: 1 << 30})
	cpu.RunLimited(k.New(1), twoSweeps)
	d := hpm.Sub(hpm.Snapshot{}, cpu.Monitor().Snapshot())
	// First sweep cold-faults every page; the steady state depends on
	// sweep count. Just require the ratio to be far below the thrashing
	// case rather than absolutely small.
	thrash := power2.New(power2.Config{Seed: 1, MemoryBytes: 8 << 20})
	thrash.RunLimited(k.New(1), twoSweeps)
	dt := hpm.Sub(hpm.Snapshot{}, thrash.Monitor().Snapshot())
	if hpm.SystemUserFXURatio(d) >= hpm.SystemUserFXURatio(dt) {
		t.Fatal("big node pages as hard as small node")
	}
}

func TestWorkingSetsDeclared(t *testing.T) {
	for _, k := range All() {
		if k.WorkingSetBytes == 0 {
			t.Errorf("%s: zero working set", k.Name)
		}
	}
	if Paging().WorkingSetBytes <= 128<<20 {
		t.Error("paging kernel must oversubscribe a 128 MB node")
	}
	if MatMul().WorkingSetBytes > 256<<10 {
		t.Error("matmul must fit the 256 KB cache")
	}
}

// BenchmarkKernelSim is the microsim's layer bench: ns per simulated
// instruction for every registry kernel, on the configuration the
// analysis path runs it on. paging runs on the what-if's 32 MB node and
// bt on a 128 MB node (Table 4's BT49 ranks); the others run without
// paging. One op is a RunLimited call of simChunk instructions, each
// continuing the same stream; a first call before the timer starts
// builds the stream's first loop and the CPU's block buffer.
func BenchmarkKernelSim(b *testing.B) {
	const simChunk = 10_000
	for _, k := range All() {
		var mem uint64
		switch k.Name {
		case "paging":
			mem = 32 << 20
		case "bt":
			mem = 128 << 20
		}
		b.Run(k.Name, func(b *testing.B) {
			cpu := power2.New(power2.Config{Seed: 1, MemoryBytes: mem})
			s := k.New(1)
			cpu.RunLimited(s, simChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu.RunLimited(s, simChunk)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*simChunk), "ns/instr")
		})
	}
}
