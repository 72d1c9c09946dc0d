package hpm

import (
	"testing"

	"repro/internal/rng"
)

// TestWrap32Delta is the table-driven contract for the wrap-correct
// helper: plain deltas, the zero delta, wrap exactly at the 32-bit
// boundary, and the deltas a double wrap silently truncates.
func TestWrap32Delta(t *testing.T) {
	cases := []struct {
		name          string
		before, after uint32
		want          uint64
		wrapped       bool
	}{
		{"zero delta", 1234, 1234, 0, false},
		{"plain advance", 100, 350, 250, false},
		{"advance from zero", 0, 0xffffffff, 0xffffffff, false},
		{"wrap at boundary", 0xffffffff, 0, 1, true},
		{"wrap past boundary", 0xfffffff0, 0x10, 0x20, true},
		{"wrap to equal is invisible", 7, 7, 0, false}, // a true delta of 2^32 reads as zero
		{"large single wrap", 0x80000000, 0x7fffffff, 0xffffffff, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, wrapped := Wrap32Delta(tc.before, tc.after)
			if got != tc.want || wrapped != tc.wrapped {
				t.Fatalf("Wrap32Delta(%#x, %#x) = (%d, %v), want (%d, %v)",
					tc.before, tc.after, got, wrapped, tc.want, tc.wrapped)
			}
		})
	}
}

// TestPropertyWrap32MatchesShadow drives a simulated 32-bit register next
// to an unwrapped 64-bit shadow with random increments below 2^32: the
// wrap-corrected delta must equal the shadow delta at every step (and is
// non-negative by type). Increments at or above 2^32 lose their whole
// laps: the corrected delta is the increment modulo 2^32.
func TestPropertyWrap32MatchesShadow(t *testing.T) {
	rnd := rng.New(20260806)
	var reg uint32
	var shadow uint64
	for i := 0; i < 100_000; i++ {
		inc := rnd.Uint64n(1 << 32) // multipass contract holds
		before, shadowBefore := reg, shadow
		reg += uint32(inc)
		shadow += inc
		d, wrapped := Wrap32Delta(before, reg)
		if d != shadow-shadowBefore {
			t.Fatalf("step %d: corrected delta %d != shadow delta %d", i, d, shadow-shadowBefore)
		}
		if wantWrap := uint64(before)+inc > 0xffffffff; wrapped != wantWrap {
			t.Fatalf("step %d: wrapped = %v, want %v (before %#x, inc %d)", i, wrapped, wantWrap, before, inc)
		}
	}
	// Contract violations: the register laps at least once unseen, and
	// the corrected delta keeps only the remainder below 2^32.
	for i := 0; i < 10_000; i++ {
		inc := (1 + rnd.Uint64n(8)) << 32 // whole laps ...
		inc += rnd.Uint64n(1 << 32)       // ... plus a visible remainder
		before := reg
		reg += uint32(inc)
		d, _ := Wrap32Delta(before, reg)
		if d != inc%(1<<32) {
			t.Fatalf("step %d: corrected delta %d on increment %d, want the remainder %d", i, d, inc, inc%(1<<32))
		}
	}
}

// TestPropertyRanBackwards checks the reset detector: monotone totals are
// never flagged, and any single-counter regression is.
func TestPropertyRanBackwards(t *testing.T) {
	rnd := rng.New(99)
	var cur Counts64
	for i := 0; i < 5_000; i++ {
		next := cur
		for n := 0; n < 4; n++ {
			m := Mode(rnd.Intn(2))
			ev := Event(rnd.Intn(int(NumEvents)))
			next.Counts[m][ev] += rnd.Uint64n(1 << 40)
		}
		if RanBackwards(cur, next) {
			t.Fatalf("step %d: monotone advance flagged as backwards", i)
		}
		// A daemon restart zeroes the totals: must be flagged unless the
		// totals were still all zero.
		if RanBackwards(next, Counts64{}) != (next != Counts64{}) {
			t.Fatalf("step %d: reset detection wrong", i)
		}
		cur = next
	}
}
