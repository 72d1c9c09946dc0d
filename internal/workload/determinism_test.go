package workload

// Determinism contract of the staged engine: the full Result — every
// counter of every day, every record, every float — is bit-identical
// across repeated same-seed runs and across any profile-measurement
// width. These tests run under -race in CI with GOMAXPROCS 1 and 4, so
// both the data races and the scheduler-order nondeterminism the parallel
// measurement could introduce are machine-checked.

import (
	"encoding/json"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/profile"
)

// resultHash hashes the complete Result, floats included: Go marshals a
// float64 to its shortest round-trippable decimal, so two results hash
// equal iff they are bit-identical (modulo the impossible-here -0/NaN).
func resultHash(t *testing.T, r Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

// runWorkers runs a default campaign on standard profiles measured with
// at most workers kernel simulations in flight. The store is bypassed, so
// every call really measures at its width.
func runWorkers(t *testing.T, days int, seed uint64, workers int) Result {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Days = days
	return NewCampaign(cfg, DefaultMix(profile.MeasureStandardStore(nil, 1, workers))).Run()
}

func TestResultIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := runWorkers(t, 5, 42, 1)
	h1 := resultHash(t, serial)
	for _, workers := range []int{2, 8} {
		par := runWorkers(t, 5, 42, workers)
		if h := resultHash(t, par); h != h1 {
			t.Fatalf("Workers=%d result hash %x differs from serial %x", workers, h, h1)
		}
		if !reflect.DeepEqual(serial.Days, par.Days) {
			t.Fatalf("Workers=%d day stream differs from serial", workers)
		}
	}
}

func TestResultIdenticalAcrossRepeatedRuns(t *testing.T) {
	a := shortCampaign(t, 4, 99)
	b := shortCampaign(t, 4, 99)
	if ha, hb := resultHash(t, a), resultHash(t, b); ha != hb {
		t.Fatalf("same-seed runs differ: %x vs %x", ha, hb)
	}
}

func TestGeneratorIsPure(t *testing.T) {
	cfg := DefaultConfig(7)
	mix := DefaultMix(std(t))
	g1 := NewGenerator(cfg, mix)
	g2 := NewGenerator(cfg, mix)

	// Same day twice from one generator, and out of order across two
	// generators: identical plans either way.
	for _, day := range []int{0, 3, 9} {
		a := g1.GenerateDay(day)
		b := g1.GenerateDay(day)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("day %d: repeated generation differs", day)
		}
	}
	for day := 9; day >= 0; day-- {
		rev := g2.GenerateDay(day)
		fwd := g1.GenerateDay(day)
		if !reflect.DeepEqual(rev, fwd) {
			t.Fatalf("day %d: generation order changed the plan", day)
		}
	}
}

func TestGeneratedJobStreamIDsUnique(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Days = 8
	g := NewGenerator(cfg, DefaultMix(std(t)))
	seen := make(map[uint64]bool)
	for d := 0; d < cfg.Days; d++ {
		for _, js := range g.GenerateDay(d).Jobs {
			if js.Spec.StreamID != js.UID {
				t.Fatalf("day %d: StreamID %d != UID %d", d, js.Spec.StreamID, js.UID)
			}
			if seen[js.UID] {
				t.Fatalf("duplicate job UID %d", js.UID)
			}
			seen[js.UID] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("generator produced no jobs")
	}
}

// TestEngineDoesTheWork: the engine counters perfbench divides by count
// the work a campaign does — every node sampled once per tick, and job
// runs advanced.
func TestEngineDoesTheWork(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Days = 2
	advanced0, sampled0 := telAdvanced.Value(), telSampled.Value()
	res := NewCampaign(cfg, DefaultMix(std(t))).Run()
	ticks := uint64(cfg.Days) * uint64(86400/int(cfg.SamplePeriodSeconds))
	if sampled, want := telSampled.Value()-sampled0, ticks*uint64(cfg.Nodes); sampled != want {
		t.Errorf("workload.engine.nodes_sampled rose by %d, want %d", sampled, want)
	}
	if telAdvanced.Value() == advanced0 {
		t.Error("workload.engine.jobs_advanced did not rise")
	}
	if len(res.Days) != cfg.Days {
		t.Errorf("reduced %d days, want %d", len(res.Days), cfg.Days)
	}
}

func TestTeeReducerFansOut(t *testing.T) {
	cfg := DefaultConfig(21)
	cfg.Days = 1
	var a, b ResultReducer
	NewCampaign(cfg, DefaultMix(std(t))).RunInto(TeeReducer{&a, &b})
	if ha, hb := resultHash(t, a.Result()), resultHash(t, b.Result()); ha != hb {
		t.Fatalf("tee branches diverged: %x vs %x", ha, hb)
	}
	if len(a.Result().Days) != 1 {
		t.Fatalf("tee dropped days: %d", len(a.Result().Days))
	}
}
