package kernels

import "testing"

// The NPB analogues are built to the benchmarks' documented performance
// characters on POWER2-class machines; these tests pin the qualitative
// signatures (orderings and pathologies), not absolute 1996 numbers.

func TestSPBetweenWorkloadAndBT(t *testing.T) {
	_, cfd := measure(t, CFD(), 200000)
	_, sp := measure(t, SP(), 200000)
	_, bt := measure(t, BT(), 200000)
	if !(cfd.MflopsAll < sp.MflopsAll && sp.MflopsAll < bt.MflopsAll) {
		t.Fatalf("ordering: cfd %.1f, sp %.1f, bt %.1f", cfd.MflopsAll, sp.MflopsAll, bt.MflopsAll)
	}
}

func TestLUSlowestSolver(t *testing.T) {
	_, lu := measure(t, LU(), 200000)
	_, sp := measure(t, SP(), 200000)
	_, bt := measure(t, BT(), 200000)
	if !(lu.MflopsAll < sp.MflopsAll && lu.MflopsAll < bt.MflopsAll) {
		t.Fatalf("LU (%.1f) should be the slowest solver (sp %.1f, bt %.1f)",
			lu.MflopsAll, sp.MflopsAll, bt.MflopsAll)
	}
	// The wavefront recurrence keeps everything on FPU0.
	if lu.MipsFPU1 > lu.MipsFPU0/4 {
		t.Errorf("LU FPU1 share too high: %.1f vs %.1f", lu.MipsFPU1, lu.MipsFPU0)
	}
}

func TestMGBandwidthBound(t *testing.T) {
	_, mg := measure(t, MG(), 200000)
	_, bt := measure(t, BT(), 200000)
	// More cache misses per memory instruction than the solvers.
	if mg.CacheMissRatio() <= bt.CacheMissRatio() {
		t.Errorf("MG cache ratio %.4f should exceed BT's %.4f", mg.CacheMissRatio(), bt.CacheMissRatio())
	}
	// Memory instructions dominate: flops/memref below 1.
	if fm := mg.FlopsPerMemRef(); fm >= 1 {
		t.Errorf("MG flops/memref = %.2f, want < 1", fm)
	}
}

func TestFTTransposeIsTLBHostile(t *testing.T) {
	_, ft := measure(t, FT(), 300000)
	_, cfd := measure(t, CFD(), 300000)
	// The paper: "we might expect high TLB miss rates from programs
	// accessing data with large memory strides" — several times the
	// workload's ratio.
	if ft.TLBMissRatio() < 3*cfd.TLBMissRatio() {
		t.Errorf("FT TLB ratio %.5f not elevated vs workload %.5f",
			ft.TLBMissRatio(), cfd.TLBMissRatio())
	}
	// Complex butterflies compile to separate adds and multiplies: no fma.
	if ft.FMAFraction() != 0 {
		t.Errorf("FT fma fraction = %.2f, want 0", ft.FMAFraction())
	}
}

func TestCGGatherBound(t *testing.T) {
	_, cg := measure(t, CG(), 300000)
	_, cfd := measure(t, CFD(), 300000)
	// The gather makes CG the slowest NPB per CPU and the most
	// cache-hostile per reference.
	if cg.MflopsAll >= cfd.MflopsAll {
		t.Errorf("CG (%.1f) should be slower than the workload average (%.1f)",
			cg.MflopsAll, cfd.MflopsAll)
	}
	if cg.CacheMissRatio() < 0.05 {
		t.Errorf("CG cache miss ratio = %.4f, want gather-dominated (>5%%)", cg.CacheMissRatio())
	}
}

func TestCGGatherDeterministicPerSeed(t *testing.T) {
	a, b := take(CG().New(3), 1000), take(CG().New(3), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CG stream not deterministic for equal seeds")
		}
	}
	c := take(CG().New(4), 1000)
	diff := false
	for i := range a {
		if a[i].Addr != c[i].Addr {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("CG gather pattern identical across seeds")
	}
}
