package profile

// Apply was rewritten for the campaign's hot path (branch-free round-up,
// no zero-count branch). These tests pin it draw for
// draw against the previous implementation, kept here verbatim as
// referenceApply: same totals, and the rng left at the same position.

import (
	"testing"

	"repro/internal/hpm"
	"repro/internal/rng"
)

// referenceApply is Apply as it was before the rewrite.
func referenceApply(p *Profile, acc *hpm.Accumulator, seconds float64, rnd *rng.Source) {
	for mode := hpm.Mode(0); mode < 2; mode++ {
		for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
			x := p.EventsPerSec[mode][ev] * seconds
			n := uint64(x)
			if rnd != nil && rnd.Float64() < x-float64(n) {
				n++
			}
			if n > 0 {
				acc.AddDirect(mode, ev, n)
			}
		}
	}
}

func TestPropertyApplyMatchesReference(t *testing.T) {
	src := rng.New(2026)
	profiles := []Profile{{}} // all-zero rates
	var sub Profile           // every rate below one event per second
	for mode := 0; mode < 2; mode++ {
		for ev := range sub.EventsPerSec[mode] {
			sub.EventsPerSec[mode][ev] = src.Float64()
		}
	}
	profiles = append(profiles, sub)
	for i := 0; i < 20; i++ {
		var p Profile
		for mode := 0; mode < 2; mode++ {
			for ev := range p.EventsPerSec[mode] {
				switch src.Intn(4) {
				case 0: // zero rate
				case 1: // rare event
					p.EventsPerSec[mode][ev] = src.Float64() / 100
				case 2: // integral rate: no fractional part to round
					p.EventsPerSec[mode][ev] = float64(src.Intn(1000))
				default: // SP2-scale rate
					p.EventsPerSec[mode][ev] = src.Float64() * 2e8
				}
			}
		}
		// Give the divide slots a rate, so the bugged monitor's
		// swallowed counts still consume their draws.
		p.EventsPerSec[hpm.User][hpm.EvFPU0Div] = 1e6 * src.Float64()
		p.EventsPerSec[hpm.User][hpm.EvFPU1Div] = 1e6 * src.Float64()
		profiles = append(profiles, p)
	}
	durations := []float64{0, 1e-3, 0.5, 1, 900, 3600.25}
	monitors := []struct {
		name string
		mon  func() *hpm.Monitor
	}{{"divbug", hpm.New}, {"nodivbug", hpm.NewWithoutDivBug}}
	for pi := range profiles {
		p := &profiles[pi]
		for _, secs := range durations {
			for _, m := range monitors {
				for _, seed := range []uint64{0, 1, 99} {
					got, want := hpm.NewAccumulator(m.mon()), hpm.NewAccumulator(m.mon())
					var gotRnd, wantRnd *rng.Source
					if seed != 0 { // seed 0 stands for a nil rnd: truncation
						gotRnd, wantRnd = rng.New(seed), rng.New(seed)
					}
					for rep := 0; rep < 3; rep++ {
						p.Apply(got, secs, gotRnd)
						referenceApply(p, want, secs, wantRnd)
					}
					if got.Totals() != want.Totals() {
						t.Fatalf("profile %d, %vs, %s, seed %d: totals differ from the reference", pi, secs, m.name, seed)
					}
					if gotRnd != nil && gotRnd.Uint64() != wantRnd.Uint64() {
						t.Fatalf("profile %d, %vs, %s, seed %d: rng position differs from the reference", pi, secs, m.name, seed)
					}
				}
			}
		}
	}
}
