package workload

// The bit-identity guard for the performance work: the optimized microsim
// (flattened cache lookup, MRU/last-hit fast paths, batched counter
// signals, lazy paging state) and the memoized profile store are execution
// knobs, not model changes, so a fixed-seed campaign must hash to exactly
// what the unoptimized seed code produced. goldenCampaignHash was captured
// by running this recipe against the pre-optimization tree; if it ever
// changes, an "optimization" changed observable behaviour.

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

// goldenCampaignHash is resultHash of the seed-7, 2-day campaign below,
// measured on the unoptimized simulator this PR started from.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

// goldenCampaign runs the pinned recipe: standard profiles at seed 7
// through the given store (nil = memoization bypassed), measured at the
// given width, then a 2-day default campaign.
func goldenCampaign(store *profile.Store, workers int) Result {
	std := profile.MeasureStandardStore(store, 7, workers)
	cfg := DefaultConfig(7)
	cfg.Days = 2
	return NewCampaign(cfg, DefaultMix(std)).Run()
}

func TestGoldenCampaignHash(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign is a full 2-day simulation")
	}
	cases := []struct {
		name      string
		store     bool
		workers   int
		telemetry bool
	}{
		{"store=off/workers=1/telemetry=on", false, 1, true},
		{"store=off/workers=8/telemetry=on", false, 8, true},
		{"store=on/workers=1/telemetry=on", true, 1, true},
		{"store=on/workers=8/telemetry=on", true, 8, true},
		// The hpmtel contract: observation must never perturb the
		// simulation, so the hash holds with telemetry off too — at both
		// measurement widths, against the same golden constant.
		{"store=on/workers=1/telemetry=off", true, 1, false},
		{"store=on/workers=8/telemetry=off", true, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			telemetry.SetEnabled(tc.telemetry)
			defer telemetry.SetEnabled(true)
			var store *profile.Store
			if tc.store {
				store = profile.NewStore()
				// Run twice so the second pass hits the warm store: the
				// hash must hold for misses and hits alike.
				if h := resultHash(t, goldenCampaign(store, tc.workers)); h != goldenCampaignHash {
					t.Fatalf("cold-store campaign hash %#x, want %#x", h, goldenCampaignHash)
				}
			}
			if h := resultHash(t, goldenCampaign(store, tc.workers)); h != goldenCampaignHash {
				t.Fatalf("campaign hash %#x, want golden %#x — the optimized path changed observable behaviour", h, goldenCampaignHash)
			}
		})
	}
}
