package profile

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/power2"
	"repro/internal/rng"
)

var (
	stdOnce sync.Once
	std     Standard
)

func standard(t *testing.T) Standard {
	t.Helper()
	stdOnce.Do(func() { std = MeasureStandard(1) })
	return std
}

func TestMeasureCFDSignature(t *testing.T) {
	p := standard(t).CFD
	if p.Name != "cfd" {
		t.Fatalf("name = %q", p.Name)
	}
	if p.Mflops < 22 || p.Mflops > 40 {
		t.Fatalf("CFD profile Mflops = %v", p.Mflops)
	}
	// Divides executed but not counted.
	if p.TrueDivPerSec <= 0 {
		t.Fatal("no true divides recorded")
	}
	if p.EventsPerSec[hpm.User][hpm.EvFPU0Div] != 0 {
		t.Fatal("divide counter rate should be 0")
	}
}

func TestMeasurePagingIsSystemHeavy(t *testing.T) {
	p := standard(t).Paging
	sysFXU := p.EventsPerSec[hpm.System][hpm.EvFXU0Instr] + p.EventsPerSec[hpm.System][hpm.EvFXU1Instr]
	userFXU := p.EventsPerSec[hpm.User][hpm.EvFXU0Instr] + p.EventsPerSec[hpm.User][hpm.EvFXU1Instr]
	if sysFXU <= userFXU {
		t.Fatalf("paging profile not system-heavy: sys %v vs user %v", sysFXU, userFXU)
	}
	if p.EventsPerSec[hpm.System][hpm.EvDMAWrite] == 0 {
		t.Fatal("paging profile has no page-in DMA")
	}
}

func TestCommProfileHasNoFlops(t *testing.T) {
	p := standard(t).Comm
	if p.Mflops != 0 {
		t.Fatalf("comm profile Mflops = %v, want 0", p.Mflops)
	}
	fxu := p.EventsPerSec[hpm.User][hpm.EvFXU0Instr] + p.EventsPerSec[hpm.User][hpm.EvFXU1Instr]
	if fxu == 0 {
		t.Fatal("comm profile has no FXU work (memcpy missing)")
	}
}

func TestMeasurePanicsOnEmptyStream(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MeasureRun("empty", isa.NewSliceStream(nil), power2.Config{}, 10)
}

func TestScale(t *testing.T) {
	p := standard(t).CFD
	h := p.Scale(0.5)
	if math.Abs(h.Mflops-p.Mflops/2) > 1e-9 {
		t.Fatalf("scaled Mflops = %v", h.Mflops)
	}
	for m := 0; m < 2; m++ {
		for ev := range h.EventsPerSec[m] {
			if math.Abs(h.EventsPerSec[m][ev]-p.EventsPerSec[m][ev]/2) > 1e-9 {
				t.Fatalf("event %d not scaled", ev)
			}
		}
	}
}

func TestWithDMA(t *testing.T) {
	p := standard(t).CFD.WithDMA(24000, 17000)
	if p.EventsPerSec[hpm.User][hpm.EvDMARead] != 24000 {
		t.Fatal("DMA read rate not set")
	}
	if p.EventsPerSec[hpm.User][hpm.EvDMAWrite] != 17000 {
		t.Fatal("DMA write rate not set")
	}
}

func TestApplyAdvancesCounters(t *testing.T) {
	p := standard(t).CFD
	acc := hpm.NewAccumulator(hpm.New())
	var s Step
	p.StepFor(900, &s) // one 15-minute interval
	s.ApplyTo(acc, rng.New(7))
	d := hpm.Sub64(hpm.Counts64{}, acc.Totals())
	r := hpm.UserRates(d, 900)
	// The reconstructed rates must match the profile within stochastic
	// rounding error — note 900 s of SP2 activity far exceeds what the
	// 32-bit hardware registers could hold, which is exactly why ApplyTo
	// writes the daemon's extended totals.
	if math.Abs(r.MflopsAll-p.Mflops) > 0.05 {
		t.Fatalf("applied Mflops = %v, profile %v", r.MflopsAll, p.Mflops)
	}
}

func TestApplyStochasticRoundingExpectation(t *testing.T) {
	// A rate of 0.3 events/sec over 1 second applied many times must
	// average ~0.3 events.
	var p Profile
	p.EventsPerSec[hpm.User][hpm.EvICacheReload] = 0.3
	var s Step
	p.StepFor(1, &s)
	rnd := rng.New(11)
	total := uint64(0)
	const n = 20000
	for i := 0; i < n; i++ {
		acc := hpm.NewAccumulator(hpm.New())
		s.ApplyTo(acc, rnd)
		total += acc.Totals().Get(hpm.User, hpm.EvICacheReload)
	}
	mean := float64(total) / n
	if math.Abs(mean-0.3) > 0.02 {
		t.Fatalf("stochastic rounding mean = %v, want ~0.3", mean)
	}
}

func TestApplyNilRNGTruncates(t *testing.T) {
	var p Profile
	p.EventsPerSec[hpm.User][hpm.EvCycles] = 0.9
	acc := hpm.NewAccumulator(hpm.New())
	var s Step
	p.StepFor(1, &s)
	s.ApplyTo(acc, nil)
	if got := acc.Totals().Get(hpm.User, hpm.EvCycles); got != 0 {
		t.Fatalf("truncating apply added %d", got)
	}
}

func TestApplyNegativePanics(t *testing.T) {
	var p Profile
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.StepFor(-1, &Step{})
}

func TestApplyRespectsDivideBug(t *testing.T) {
	// Even if a profile somehow carried a divide rate, the accumulator of
	// a bugged monitor must swallow it, as the hardware did.
	var p Profile
	p.EventsPerSec[hpm.User][hpm.EvFPU0Div] = 1000
	acc := hpm.NewAccumulator(hpm.New())
	var s Step
	p.StepFor(1, &s)
	s.ApplyTo(acc, nil)
	if got := acc.Totals().Get(hpm.User, hpm.EvFPU0Div); got != 0 {
		t.Fatalf("divide counts leaked through: %d", got)
	}
}

func TestStandardOrdering(t *testing.T) {
	s := standard(t)
	if !(s.CFD.Mflops < s.BT.Mflops && s.BT.Mflops < s.MatMul.Mflops) {
		t.Fatalf("profile ordering violated: cfd=%v bt=%v matmul=%v",
			s.CFD.Mflops, s.BT.Mflops, s.MatMul.Mflops)
	}
	if s.Paging.Mflops > s.CFD.Mflops/2 {
		t.Fatalf("paging profile too fast: %v", s.Paging.Mflops)
	}
}

func TestMeasureKernelDeterministic(t *testing.T) {
	k, _ := kernels.ByName("bt")
	a := MeasureKernel(k, power2.Config{Seed: 3}, 100000)
	b := MeasureKernel(k, power2.Config{Seed: 3}, 100000)
	if a != b {
		t.Fatal("measurement not deterministic")
	}
}

func TestMeasureStandardWorkersBitIdentical(t *testing.T) {
	serial := MeasureStandardWorkers(3, 1)
	parallel := MeasureStandardWorkers(3, 4)
	if serial != parallel {
		t.Fatal("parallel MeasureStandard differs from serial")
	}
	// And the default entry point agrees with both.
	if def := MeasureStandard(3); def != serial {
		t.Fatal("MeasureStandard differs from MeasureStandardWorkers")
	}
}
