package workload

// Tests for the fault-injected collection path: the golden-equivalence
// guarantee (a zero-rate fault config perturbs nothing), determinism of a
// faulted campaign across repeated runs, the coverage ledger invariant
// over a real campaign, and the duplicates-are-free property.

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/profile"
)

// goldenStd measures the standard profiles exactly as the golden recipe
// does (seed 7, serial, store bypassed).
func goldenStd() profile.Standard {
	return profile.MeasureStandardStore(nil, 7, 1)
}

// faultedCfg builds a short default campaign with the given fault mix.
func faultedCfg(seed uint64, days int, f faults.Config) Config {
	cfg := DefaultConfig(seed)
	cfg.Days = days
	cfg.Faults = &f
	return cfg
}

// TestZeroFaultConfigMatchesGolden: threading a non-nil but all-zero
// fault config through the whole machinery — plans built, fates decided,
// engine consulted every tick — must reproduce the golden campaign hash
// bit for bit once the fault-only fields are stripped.
func TestZeroFaultConfigMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign is a full 2-day simulation")
	}
	cfg := faultedCfg(7, 2, faults.Config{})
	res := NewCampaign(cfg, DefaultMix(goldenStd())).Run()
	if res.Coverage == nil {
		t.Fatal("faulted campaign produced no coverage report")
	}
	cov := res.Coverage.Total
	if cov.Dropped != 0 || cov.Down != 0 || cov.Resets != 0 || cov.Duplicates != 0 || cov.DelayedEpilogues != 0 {
		t.Fatalf("zero-rate config injected faults: %+v", cov)
	}
	if cov.Captured != cov.Expected {
		t.Fatalf("zero-rate config lost samples: captured %d of %d", cov.Captured, cov.Expected)
	}
	// Strip the fault-only fields; everything else must hash golden.
	res.Coverage = nil
	res.Config.Faults = nil
	if h := resultHash(t, res); h != goldenCampaignHash {
		t.Fatalf("zero-rate faulted campaign hash %#x, want golden %#x — the fault layer perturbed the clean path", h, goldenCampaignHash)
	}
}

// TestFaultedCampaignDeterminism: with the default fault mix live, the
// entire Result — days, records, coverage report — is identical across
// repeated runs.
func TestFaultedCampaignDeterminism(t *testing.T) {
	run := func() Result {
		return NewCampaign(faultedCfg(11, 3, faults.Default()), DefaultMix(std(t))).Run()
	}
	first := run()
	if first.Coverage == nil || first.Coverage.Total.Expected == 0 {
		t.Fatal("faulted campaign produced no coverage")
	}
	again := run()
	if h, h1 := resultHash(t, again), resultHash(t, first); h != h1 {
		t.Fatalf("faulted result hash %#x differs from the first run's %#x", h, h1)
	}
	if !reflect.DeepEqual(first.Coverage, again.Coverage) {
		t.Fatal("coverage report differs from the first run's")
	}
}

// faultedOracleHash is resultHash of the faultedOracle recipe below,
// captured before the tick path was rewritten for speed. The golden
// campaign runs fault-free, so it never reaches the duplicated and rebase
// fates; this recipe does (782 duplicates, 25 rebases), which makes it
// the second committed oracle for the sampling engine.
const faultedOracleHash uint64 = 0x886c37816d5fd4f0

// TestFaultedOracleHash runs the pinned faulted recipe: the default
// fault mix at seed 11 over a 20-day default campaign.
func TestFaultedOracleHash(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted oracle is a full 20-day simulation")
	}
	res := NewCampaign(faultedCfg(11, 20, faults.Default()), DefaultMix(std(t))).Run()
	if cov := res.Coverage.Total; cov.Duplicates != 782 || cov.Rebased != 25 {
		t.Fatalf("oracle coverage %d duplicates, %d rebases; want 782 and 25", cov.Duplicates, cov.Rebased)
	}
	if h := resultHash(t, res); h != faultedOracleHash {
		t.Fatalf("faulted oracle hash %#x, want %#x — the sampling path changed observable behaviour", h, faultedOracleHash)
	}
}

// TestPropertyCampaignCoverageLedger runs several seeds of an aggressive
// fault mix and checks the ledger invariants end to end: every day
// balances, days cross-foot to the total, coverage plus loss counts sum
// to the samples the schedule owed, and covered node-seconds never exceed
// the day's wall clock.
func TestPropertyCampaignCoverageLedger(t *testing.T) {
	mix := faults.Config{
		CrashProbPerNodeDay:      0.10,
		MeanOutageTicks:          4,
		DropProbPerSample:        0.05,
		DupProbPerSample:         0.02,
		RestartProbPerNodeDay:    0.10,
		EpilogueDelayProb:        0.3,
		EpilogueDelayMeanSeconds: 400,
	}
	for _, seed := range []uint64{1, 2, 3} {
		cfg := faultedCfg(seed, 2, mix)
		res := NewCampaign(cfg, DefaultMix(std(t))).Run()
		rep := res.Coverage
		if rep == nil {
			t.Fatalf("seed %d: no coverage report", seed)
		}
		if err := rep.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ticksPerDay := int64(86400 / cfg.SamplePeriodSeconds)
		if len(rep.Days) != cfg.Days {
			t.Fatalf("seed %d: %d coverage days, want %d", seed, len(rep.Days), cfg.Days)
		}
		totalCovered := 0.0
		for _, d := range rep.Days {
			if want := ticksPerDay * int64(cfg.Nodes); d.Expected != want {
				t.Fatalf("seed %d day %d: expected %d samples, schedule owed %d", seed, d.Day, d.Expected, want)
			}
			// A capture bridging midnight credits its whole interval to the
			// day it lands in, so one day may exceed its own wall clock —
			// but never by more than a day, and the campaign total is bounded.
			if wall := 86400 * float64(cfg.Nodes); d.CoveredNodeSeconds > 2*wall {
				t.Fatalf("seed %d day %d: covered %.0f node-seconds, over double the day's %.0f", seed, d.Day, d.CoveredNodeSeconds, wall)
			}
			totalCovered += d.CoveredNodeSeconds
		}
		if wall := 86400 * float64(cfg.Nodes) * float64(cfg.Days); totalCovered > wall+1e-6 {
			t.Fatalf("seed %d: campaign covered %.0f node-seconds exceeds the wall clock's %.0f", seed, totalCovered, wall)
		}
		if rep.Total.Dropped == 0 && rep.Total.Down == 0 {
			t.Fatalf("seed %d: aggressive mix injected no losses", seed)
		}
	}
}

// TestPropertyDuplicatesAreFree: a campaign whose only fault is duplicate
// reads — every sample read twice — must produce the identical day stream
// and records as the clean campaign. Duplicates may never create or
// destroy counts.
func TestPropertyDuplicatesAreFree(t *testing.T) {
	clean := func() Result {
		cfg := DefaultConfig(17)
		cfg.Days = 2
		return NewCampaign(cfg, DefaultMix(std(t))).Run()
	}()
	duped := func() Result {
		cfg := faultedCfg(17, 2, faults.Config{DupProbPerSample: 1})
		return NewCampaign(cfg, DefaultMix(std(t))).Run()
	}()
	if duped.Coverage == nil || duped.Coverage.Total.Duplicates != duped.Coverage.Total.Expected {
		t.Fatalf("DupProb=1 did not duplicate every sample: %+v", duped.Coverage)
	}
	if !reflect.DeepEqual(clean.Days, duped.Days) {
		t.Fatal("duplicate reads changed the day stream")
	}
	if !reflect.DeepEqual(clean.Records, duped.Records) {
		t.Fatal("duplicate reads changed the batch records")
	}
	if clean.MaxGflops15min != duped.MaxGflops15min {
		t.Fatalf("duplicate reads moved the 15-minute peak: %v vs %v", clean.MaxGflops15min, duped.MaxGflops15min)
	}
}

// TestFaultedCampaignLosesSamples is the positive control: the default
// mix on a short campaign actually exercises every fault mode the plan
// schedules, and the lossy modes reduce coverage below 100%.
func TestFaultedCampaignLosesSamples(t *testing.T) {
	cfg := faultedCfg(23, 3, faults.Default())
	res := NewCampaign(cfg, DefaultMix(std(t))).Run()
	cov := res.Coverage.Total
	if cov.Dropped == 0 {
		t.Error("default mix dropped no samples")
	}
	if cov.Captured >= cov.Expected {
		t.Errorf("default mix lost nothing: captured %d of %d", cov.Captured, cov.Expected)
	}
	if ratio := res.Coverage.Total.CaptureRatio(); ratio < 0.9 {
		t.Errorf("default mix too destructive: %.1f%% capture", 100*ratio)
	}
}
