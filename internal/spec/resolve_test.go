package spec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

// syntheticStandard builds a cheap, fully distinguishable profile set:
// every kernel gets distinct rates so a resolution mix-up (wrong kernel,
// wrong scale, swapped comm) changes the result. No micro-simulation —
// resolve tests must not pay the measurement cost.
func syntheticStandard() profile.Standard {
	mk := func(name string, base float64) profile.Profile {
		var p profile.Profile
		p.Name = name
		for m := 0; m < 2; m++ {
			for ev := range p.EventsPerSec[m] {
				p.EventsPerSec[m][ev] = base + float64(m*1000+ev)
			}
		}
		p.Mflops = base
		p.TrueDivPerSec = base / 10
		return p
	}
	return profile.Standard{
		CFD:        mk("cfd", 1e6),
		BT:         mk("bt", 2e6),
		MatMul:     mk("matmul", 3e6),
		Sequential: mk("sequential", 4e6),
		Comm:       mk("comm", 5e6),
		Paging:     mk("paging", 6e6),
	}
}

// TestPaper1996ResolvesToDefaults is the calibration linchpin: the
// committed paper-1996 preset must resolve to exactly the built-in
// DefaultConfig and DefaultMix — bit-for-bit, every float, every slice —
// because that equality is what carries the golden campaign hash across
// the spec refactor.
func TestPaper1996ResolvesToDefaults(t *testing.T) {
	s, err := Preset("paper-1996")
	if err != nil {
		t.Fatal(err)
	}
	std := syntheticStandard()
	cfg, mix, err := Resolve(s, std)
	if err != nil {
		t.Fatal(err)
	}

	wantCfg := workload.DefaultConfig(0)
	if cfg.Scenario != "paper-1996" {
		t.Errorf("Scenario = %q, want paper-1996", cfg.Scenario)
	}
	cfg.Scenario = "" // metadata, not model input
	if !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("resolved Config diverges from DefaultConfig:\n got  %+v\n want %+v", cfg, wantCfg)
	}

	wantMix := workload.DefaultMix(std)
	if reflect.DeepEqual(mix, wantMix) {
		return
	}
	// Field-by-field reporting: a whole-Mix dump is unreadable.
	if len(mix.Clients) != len(wantMix.Clients) {
		t.Fatalf("clients: got %d, want %d", len(mix.Clients), len(wantMix.Clients))
	}
	for i := range mix.Clients {
		if !reflect.DeepEqual(mix.Clients[i], wantMix.Clients[i]) {
			t.Errorf("clients[%d] (%s) diverges:\n got  %+v\n want %+v",
				i, wantMix.Clients[i].Class.Name, mix.Clients[i], wantMix.Clients[i])
		}
	}
	if !reflect.DeepEqual(mix.LargeJobs, wantMix.LargeJobs) {
		t.Errorf("LargeJobs: got %+v, want %+v", mix.LargeJobs, wantMix.LargeJobs)
	}
	if !reflect.DeepEqual(mix.JobSize, wantMix.JobSize) {
		t.Errorf("JobSize: got %+v, want %+v", mix.JobSize, wantMix.JobSize)
	}
	if !reflect.DeepEqual(mix.Runtime, wantMix.Runtime) {
		t.Errorf("Runtime: got %+v, want %+v", mix.Runtime, wantMix.Runtime)
	}
	if !reflect.DeepEqual(mix.Quality, wantMix.Quality) {
		t.Errorf("Quality: got %+v, want %+v", mix.Quality, wantMix.Quality)
	}
	if mix.WeekendFactor != wantMix.WeekendFactor {
		t.Errorf("WeekendFactor: got %v, want %v", mix.WeekendFactor, wantMix.WeekendFactor)
	}
	if mix.Users != wantMix.Users {
		t.Errorf("Users: got %d, want %d", mix.Users, wantMix.Users)
	}
}

// TestResolveDefaults checks the omitted-field defaults: a minimal spec
// inherits the paper's distributions, cadence and record filter.
func TestResolveDefaults(t *testing.T) {
	s := minimalSpec()
	cfg, mix, err := Resolve(s, syntheticStandard())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SamplePeriodSeconds != 900 {
		t.Errorf("SamplePeriodSeconds = %v, want default 900", cfg.SamplePeriodSeconds)
	}
	if cfg.MinRecordWall != 600 {
		t.Errorf("MinRecordWall = %v, want default 600", cfg.MinRecordWall)
	}
	if cfg.Seed != 0 {
		t.Errorf("Seed must be left to the caller, got %d", cfg.Seed)
	}
	if mix.WeekendFactor != 1 {
		t.Errorf("WeekendFactor = %v, want default 1", mix.WeekendFactor)
	}
	if mix.Users != workload.PaperUsers {
		t.Errorf("Users = %d, want default %d", mix.Users, workload.PaperUsers)
	}
	if !reflect.DeepEqual(mix.JobSize, workload.PaperJobSize()) {
		t.Errorf("JobSize should default to the paper marginal")
	}
	if !reflect.DeepEqual(mix.Runtime, workload.PaperRuntime()) {
		t.Errorf("Runtime should default to the paper distribution")
	}
	if mix.LargeJobs.ThresholdNodes != 0 {
		t.Errorf("LargeJobs should be disabled by default, got %+v", mix.LargeJobs)
	}
	if cfg.Faults != nil {
		t.Errorf("Faults should be nil with no faults block")
	}
}

// TestResolveKernelMix checks the weighted blend: equal weights of two
// kernels must average their rates (weights are normalized).
func TestResolveKernelMix(t *testing.T) {
	s := minimalSpec()
	s.Clients[0].Profile.Kernel = ""
	s.Clients[0].Profile.KernelMix = []KernelWeight{
		{Kernel: "cfd", Weight: 2},
		{Kernel: "comm", Weight: 2},
	}
	std := syntheticStandard()
	_, mix, err := Resolve(s, std)
	if err != nil {
		t.Fatal(err)
	}
	got := mix.Clients[0].Class.Crunch.Mflops
	want := (std.CFD.Mflops + std.Comm.Mflops) / 2
	if got != want {
		t.Errorf("blended Mflops = %v, want %v", got, want)
	}
}

// TestResolveFaults checks that a non-zero faults block threads through
// and an all-zero one resolves to no fault layer.
func TestResolveFaults(t *testing.T) {
	s := minimalSpec()
	s.Faults = &Faults{}
	cfg, _, err := Resolve(s, syntheticStandard())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != nil {
		t.Errorf("all-zero faults block must resolve to nil, got %+v", cfg.Faults)
	}
	s.Faults = &Faults{DropProbPerSample: 0.01, MeanOutageTicks: 3}
	cfg, _, err = Resolve(s, syntheticStandard())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || cfg.Faults.DropProbPerSample != 0.01 {
		t.Errorf("faults block lost in resolution: %+v", cfg.Faults)
	}
}

// TestResolveUnknownReferences checks that a spec that skipped
// validation still fails with errors, not panics.
func TestResolveUnknownReferences(t *testing.T) {
	s := minimalSpec()
	s.Clients[0].Profile.Kernel = "fft"
	if _, _, err := Resolve(s, syntheticStandard()); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("unknown kernel: got err %v", err)
	}

	s = minimalSpec()
	s.LargeJobs = &LargeJobs{ThresholdNodes: 64, Fallback: "nobody"}
	if _, _, err := Resolve(s, syntheticStandard()); err == nil || !strings.Contains(err.Error(), "unknown client") {
		t.Errorf("unknown fallback client: got err %v", err)
	}
}

// minimalSpec is the smallest valid document: one remainder client.
func minimalSpec() *Spec {
	return &Spec{
		Version: 1,
		Name:    "minimal",
		Campaign: Campaign{
			Days: 1, Nodes: 16,
			MeanUtil: 0.5, UtilSigma: 0.1, PagingDayProb: 0.1,
		},
		Clients: []Client{{
			Name:      "only",
			Remainder: true,
			Profile: Profile{
				Kernel:             "cfd",
				ComputeDuty:        0.8,
				CommActive:         0.5,
				PerfSigma:          0.3,
				MemoryPerNodeBytes: 32 << 20,
				MsgBytesPerFlop:    0.05,
				DiskOutBytesPerSec: 100e3,
			},
		}},
	}
}
