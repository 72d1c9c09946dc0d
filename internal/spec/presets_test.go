package spec

import (
	"encoding/json"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/workload"
)

// resultHash mirrors the workload package's determinism hash: fnv64a over
// the JSON encoding of the full Result, floats at shortest
// round-trippable precision — equal iff bit-identical.
func resultHash(t *testing.T, r workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

// goldenCampaignHash duplicates the constant pinned in
// internal/workload/golden_test.go: the seed-7, 2-day default campaign
// on the pre-optimization simulator. The paper-1996 preset must hit it
// through the whole spec pipeline — load, validate, resolve, run.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

// presetOracleHashes pins the 1-day seed-7 campaign TestPresetsRoundTrip
// runs for each preset, captured before the profile extrapolation was
// split into a per-job step. Each preset leaves a different set of
// counters at zero rate, so each is an oracle the golden campaign is
// not: bursty with its faults, comm-heavy's kernel mix and memory-bound's
// paging class.
var presetOracleHashes = map[string]uint64{
	"bursty":       0xe54a302afc5a759,
	"comm-heavy":   0x7947900799408902,
	"memory-bound": 0x9ea8811b5b87c5cb,
	"paper-1996":   0xbdd920fc3d5a631c,
}

// TestPresetsRoundTrip runs every committed preset end-to-end: load,
// validate, resolve against real measured profiles, then a 1-day
// campaign that must equal the preset's pinned oracle. A metamorphic leg
// runs the preset again with zero-rate faults: with the coverage report
// and the fault config stripped, it must hash like the preset run with
// no fault layer at all — for the presets without a faults block, the
// oracle run itself. That is the golden zero-fault guarantee extended to
// every scenario axis the spec layer adds (bursty arrivals, lifecycle
// warps, kernel mixes, embedded faults).
func TestPresetsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("preset round-trips run real campaigns")
	}
	store := profile.NewStore()
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != name {
				t.Errorf("preset file %s.json declares name %q; file and name must agree", name, s.Name)
			}

			// Marshal/decode round-trip: the committed form must survive
			// re-encoding, or editing a preset would silently change it.
			var buf []byte
			if buf, err = json.Marshal(s); err != nil {
				t.Fatal(err)
			}
			back, err := DecodeBytes(buf)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !reflect.DeepEqual(s, back) {
				t.Errorf("preset %s does not survive an encode/decode round-trip", name)
			}

			std := profile.MeasureStandardStore(store, 7, 8)
			cfg, mix, err := Resolve(s, std)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Days = 1 // a day is enough to exercise every draw path
			cfg.Seed = 7

			run := func(f *faults.Config) workload.Result {
				c := cfg
				c.Faults = f
				res := workload.NewCampaign(c, mix).Run()
				if len(res.Days) != 1 {
					t.Fatalf("got %d days, want 1", len(res.Days))
				}
				if res.Days[0].Gflops() <= 0 {
					t.Fatal("campaign advanced no floating-point counters")
				}
				return res
			}
			oracle := resultHash(t, run(cfg.Faults))
			if want, ok := presetOracleHashes[name]; !ok {
				t.Errorf("preset %s has no pinned oracle hash (it gives %#x)", name, oracle)
			} else if oracle != want {
				t.Errorf("preset %s: hash %#x, want oracle %#x — the campaign changed observable behaviour", name, oracle, want)
			}
			unfaulted := oracle
			if cfg.Faults != nil {
				unfaulted = resultHash(t, run(nil))
			}
			zero := run(&faults.Config{})
			zero.Coverage, zero.Config.Faults = nil, nil
			if h := resultHash(t, zero); h != unfaulted {
				t.Errorf("preset %s: zero-rate faults hash %#x, no faults %#x — the fault layer perturbed the clean path", name, h, unfaulted)
			}
		})
	}
}

// TestPaper1996GoldenHash runs the golden recipe through the spec
// pipeline: seed-7 profiles, the paper-1996 preset, 2 days. The hash
// must equal the constant captured before the spec layer existed — the
// refactor's proof that lifting the mix into data changed nothing.
func TestPaper1996GoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign is a full 2-day simulation")
	}
	s, err := Preset("paper-1996")
	if err != nil {
		t.Fatal(err)
	}
	std := profile.MeasureStandardStore(profile.NewStore(), 7, 8)
	cfg, mix, err := Resolve(s, std)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	cfg.Days = 2
	res := workload.NewCampaign(cfg, mix).Run()
	if h := resultHash(t, res); h != goldenCampaignHash {
		t.Fatalf("spec-resolved paper-1996 campaign hash %#x, want golden %#x — the spec pipeline changed observable behaviour", h, goldenCampaignHash)
	}
}

// TestPresetNames pins the committed catalogue: CLI docs, README and CI
// all reference these four names.
func TestPresetNames(t *testing.T) {
	want := []string{"bursty", "comm-heavy", "memory-bound", "paper-1996"}
	if got := PresetNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("PresetNames() = %v, want %v", got, want)
	}
	if _, err := Preset("no-such-preset"); err == nil {
		t.Error("Preset on an unknown name must fail")
	}
}

// TestLoadDispatch checks the name-vs-path dispatch behind -spec.
func TestLoadDispatch(t *testing.T) {
	if _, err := Load("bursty"); err != nil {
		t.Errorf("Load(bursty) should hit the preset: %v", err)
	}
	if _, err := Load("presets/bursty.json"); err != nil {
		t.Errorf("Load of a relative path should read the file: %v", err)
	}
	if _, err := Load("no/such/file.json"); err == nil {
		t.Error("Load of a missing path must fail")
	}
}
