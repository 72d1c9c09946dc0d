package profile

// Apply was rewritten for the campaign's hot path: it is now StepFor,
// which resolves the interval once, and Step.ApplyTo, which only draws
// and adds, and the campaign shares one Step across a job's nodes. These
// tests pin both draw for draw against the original implementation,
// kept here verbatim as referenceApply: same totals, and the rng left at
// the same position. The integer round-up threshold is pinned on its own
// against the float comparison it replaces.

import (
	"math"
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
	var whole Profile // every rate integral: nothing to round
	for mode := 0; mode < 2; mode++ {
		for ev := range whole.EventsPerSec[mode] {
			whole.EventsPerSec[mode][ev] = float64(src.Intn(1 << 20))
		}
	}
	profiles = append(profiles, whole)
	profiles = append(profiles, boundaryProfiles(boundarySeed)...)
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
				for _, seed := range []uint64{0, boundarySeed, 99} {
					newRnds := func() (got, want *rng.Source) {
						if seed == 0 { // seed 0 stands for a nil rnd: truncation
							return nil, nil
						}
						return rng.New(seed), rng.New(seed)
					}
					// One accumulator applied over several intervals.
					got, want := hpm.NewAccumulator(m.mon()), hpm.NewAccumulator(m.mon())
					gotRnd, wantRnd := newRnds()
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

					// The per-job usage: one Step applied to each of a
					// job's nodes in turn, from the job's one stream.
					var step Step
					p.StepFor(secs, &step)
					gotRnd, wantRnd = newRnds()
					for nd := 0; nd < 4; nd++ {
						got, want := hpm.NewAccumulator(m.mon()), hpm.NewAccumulator(m.mon())
						step.ApplyTo(got, gotRnd)
						referenceApply(p, want, secs, wantRnd)
						if got.Totals() != want.Totals() {
							t.Fatalf("profile %d, %vs, %s, seed %d: node %d of a shared step differs from the reference", pi, secs, m.name, seed, nd)
						}
					}
					if gotRnd != nil && gotRnd.Uint64() != wantRnd.Uint64() {
						t.Fatalf("profile %d, %vs, %s, seed %d: rng position after a shared step differs from the reference", pi, secs, m.name, seed)
					}
				}
			}
		}
	}
}

// boundarySeed is the stream boundaryProfiles aims at.
const boundarySeed = 1

// boundaryProfiles returns two profiles whose per-second rates are
// fractions placed on the first draws rng.New(seed) makes: the first
// Apply of one second from that stream compares each counter's draw k
// against a threshold of exactly k (no round-up) in the first profile
// and exactly k+1 (round-up) in the second. A random fraction lands
// there with probability 2^-53, so only these profiles catch an
// off-by-one in the compare or a threshold that is not rounded up.
func boundaryProfiles(seed uint64) []Profile {
	var k [numCounters]uint64
	rng.New(seed).Fill(k[:])
	var on, above Profile
	for mode := 0; mode < 2; mode++ {
		for ev := range on.EventsPerSec[mode] {
			f := float64(k[mode*int(hpm.NumEvents)+ev]>>11) / (1 << 53)
			on.EventsPerSec[mode][ev] = f
			above.EventsPerSec[mode][ev] = math.Nextafter(f, 1)
		}
	}
	return []Profile{on, above}
}

// TestRoundUpThresholdExact: for every fraction f, a draw k's float
// comparison float64(k)/2^53 < f (rng.Float64 < f) agrees with the
// integer comparison k < roundUpThreshold(f), checked around the
// threshold and at random k.
func TestRoundUpThresholdExact(t *testing.T) {
	const scale = 1 << 53
	src := rng.New(53)
	fracs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, // subnormals and the smallest normal
		0x1p-60, 0x1p-54, 1 - 0x1p-53,
		1, math.Nextafter(1, 2), 1.5, 3e9, math.MaxFloat64, math.Inf(1),
		-math.SmallestNonzeroFloat64, -0x1p-53, -0.5, -1, math.Inf(-1),
		math.NaN(),
	}
	// Exact multiples of 2^-53 and their float neighbours.
	for _, m := range []uint64{1, 2, 3, 1<<52 - 1, 1 << 52, 1<<52 + 1, scale - 2, scale - 1} {
		f := float64(m) / scale
		fracs = append(fracs, f, math.Nextafter(f, 0), math.Nextafter(f, 1))
	}
	for i := 0; i < 100; i++ {
		m := src.Uint64() >> 11
		f := float64(m) / scale
		fracs = append(fracs, f, math.Nextafter(f, 0), math.Nextafter(f, 1))
		fracs = append(fracs, math.Float64frombits(src.Uint64()&(1<<52-1))) // a random subnormal
	}
	for i := 0; i < 10000; i++ {
		fracs = append(fracs, src.Float64())
	}
	for _, f := range fracs {
		th := roundUpThreshold(f)
		if th > scale {
			t.Fatalf("f=%v: threshold %d above 2^53", f, th)
		}
		ks := []uint64{0, scale - 1}
		for _, d := range []int64{-1, 0, 1} {
			if k := int64(th) + d; k >= 0 && k < scale {
				ks = append(ks, uint64(k))
			}
		}
		for i := 0; i < 8; i++ {
			ks = append(ks, src.Uint64()>>11)
		}
		for _, k := range ks {
			if got, want := k < th, float64(k)/scale < f; got != want {
				t.Fatalf("f=%v (%#x), k=%d: k < T(%d) is %v, float compare is %v", f, math.Float64bits(f), k, th, got, want)
			}
		}
	}
}
