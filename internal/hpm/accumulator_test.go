package hpm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorExtendsPastWrap(t *testing.T) {
	m := New()
	a := NewAccumulator(m)
	// Drive the cycles register around the 32-bit horn three times. The
	// daemon's contract is that it samples before any register advances a
	// full 2^32 between reads (multipass mode), so sample between bursts.
	for i := 0; i < 3; i++ {
		m.Add(EvCycles, math.MaxUint32)
		a.Sample()
		m.Add(EvCycles, 1) // completes one wrap per pass
		a.Sample()
	}
	want := 3 * (uint64(math.MaxUint32) + 1)
	if got := a.Totals().Get(User, EvCycles); got != want {
		t.Fatalf("extended cycles = %d, want %d", got, want)
	}
}

func TestAccumulatorBaseline(t *testing.T) {
	m := New()
	m.Add(EvCycles, 500) // activity before the accumulator attaches
	a := NewAccumulator(m)
	a.Sample()
	if got := a.Totals().Get(User, EvCycles); got != 0 {
		t.Fatalf("pre-attach activity leaked: %d", got)
	}
	m.Add(EvCycles, 7)
	a.Sample()
	if got := a.Totals().Get(User, EvCycles); got != 7 {
		t.Fatalf("totals = %d", got)
	}
}

func TestAccumulatorSampleIdempotentWhenQuiet(t *testing.T) {
	m := New()
	a := NewAccumulator(m)
	m.Add(EvFXU0Instr, 9)
	a.Sample()
	a.Sample()
	a.Sample()
	if got := a.Totals().Get(User, EvFXU0Instr); got != 9 {
		t.Fatalf("re-sampling double-counted: %d", got)
	}
}

func TestAccumulatorReset(t *testing.T) {
	m := New()
	a := NewAccumulator(m)
	m.Add(EvCycles, 100)
	a.Sample()
	a.Reset()
	if got := a.Totals().Get(User, EvCycles); got != 0 {
		t.Fatalf("Reset left %d", got)
	}
	// Hardware state between Reset and next activity is the new baseline.
	m.Add(EvCycles, 5)
	a.Sample()
	if got := a.Totals().Get(User, EvCycles); got != 5 {
		t.Fatalf("post-reset totals = %d", got)
	}
}

func TestAccumulatorTracksModes(t *testing.T) {
	m := New()
	a := NewAccumulator(m)
	m.Add(EvFXU0Instr, 3)
	m.SetMode(System)
	m.Add(EvFXU0Instr, 11)
	a.Sample()
	tot := a.Totals()
	if tot.Get(User, EvFXU0Instr) != 3 || tot.Get(System, EvFXU0Instr) != 11 {
		t.Fatalf("mode split wrong: %d/%d", tot.Get(User, EvFXU0Instr), tot.Get(System, EvFXU0Instr))
	}
}

func TestAddDirect(t *testing.T) {
	a := NewAccumulator(New())
	a.AddDirect(User, EvCycles, 1<<40) // far beyond 32 bits in one shot
	if got := a.Totals().Get(User, EvCycles); got != 1<<40 {
		t.Fatalf("AddDirect = %d", got)
	}
}

func TestAddDirectRespectsDivBug(t *testing.T) {
	a := NewAccumulator(New())
	a.AddDirect(User, EvFPU0Div, 100)
	a.AddDirect(User, EvFPU1Div, 100)
	if a.Totals().Get(User, EvFPU0Div) != 0 || a.Totals().Get(User, EvFPU1Div) != 0 {
		t.Fatal("divide counts leaked through the bugged monitor")
	}
	// A fixed monitor passes them through.
	b := NewAccumulator(NewWithoutDivBug())
	b.AddDirect(User, EvFPU0Div, 100)
	if b.Totals().Get(User, EvFPU0Div) != 100 {
		t.Fatal("fixed monitor swallowed divide counts")
	}
}

func TestAddDirectPanicsOnInvalidEvent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewAccumulator(New()).AddDirect(User, NumEvents, 1)
}

func TestSub64(t *testing.T) {
	var a, b Counts64
	a.Counts[User][EvCycles] = 100
	b.Counts[User][EvCycles] = 350
	d := Sub64(a, b)
	if d.Get(User, EvCycles) != 250 {
		t.Fatalf("delta = %d", d.Get(User, EvCycles))
	}
}

func TestSub64PanicsOnBackwards(t *testing.T) {
	var a, b Counts64
	a.Counts[User][EvCycles] = 100
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Sub64(a, b)
}

func TestCounts64Add(t *testing.T) {
	var c Counts64
	var d Delta
	d.Counts[System][EvFXU1Instr] = 42
	c.Add(d)
	c.Add(d)
	if c.Get(System, EvFXU1Instr) != 84 {
		t.Fatalf("Add = %d", c.Get(System, EvFXU1Instr))
	}
}

func TestAccumulatorConservationProperty(t *testing.T) {
	// For any increment sequence that respects the sampling contract (no
	// register advances 2^32 between samples), totals equal the arithmetic
	// sum regardless of wraps.
	f := func(incs []uint32, sampleEvery uint8) bool {
		period := int(sampleEvery%5) + 1
		m := New()
		a := NewAccumulator(m)
		var sum uint64
		for i, raw := range incs {
			inc := uint64(raw) % (1 << 29) // period<=5 -> <2^32 between samples
			m.Add(EvFXU1Instr, inc)
			sum += inc
			if i%period == 0 {
				a.Sample()
			}
		}
		a.Sample()
		return a.Totals().Get(User, EvFXU1Instr) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refAccumulator is Accumulator.Sample as it was before the early return:
// a full snapshot, Sub, and Counts64.Add on every call.
type refAccumulator struct {
	mon    *Monitor
	last   Snapshot
	totals Counts64
}

func (r *refAccumulator) sample() {
	cur := r.mon.Snapshot()
	r.totals.Add(Sub(r.last, cur))
	r.last = cur
}

// TestPropertySampleAndAdvanceMatchReference drives two identical monitors
// through random register increments (wrapping the 32-bit registers, in
// both modes), quiet re-samples and re-baselines, and checks that
// Sample — which skips the fold when no register moved — and
// AdvanceInto match the copying reference (Sub + Add, Sub64 + Add) bit
// for bit.
func TestPropertySampleAndAdvanceMatchReference(t *testing.T) {
	f := func(ops []uint64) bool {
		m, rm := New(), New()
		a := NewAccumulator(m)
		r := &refAccumulator{mon: rm, last: rm.Snapshot()}
		var prev, rprev Counts64
		var d, rd Delta
		for _, op := range ops {
			ev, mode := Event(op%uint64(NumEvents)), Mode(op>>8&1)
			switch op >> 9 % 6 {
			case 0, 1: // register activity, often enough to wrap
				n := op >> 12 % (1 << 32)
				for _, x := range []*Monitor{m, rm} {
					x.SetMode(mode)
					x.Add(ev, n)
				}
			case 2: // extrapolated counts straight into the totals
				a.AddDirect(mode, ev, op>>12)
				if !(rm.divBug && rm.divSlot[ev]) {
					r.totals.Counts[mode][ev] += op >> 12
				}
			case 3: // a quiet re-sample must change nothing
				a.Sample()
				r.sample()
			case 4: // re-baseline (a daemon restart)
				a.Reset()
				r.totals, r.last = Counts64{}, rm.Snapshot()
				prev, rprev = Counts64{}, Counts64{}
			default: // a sweep: sample and advance
				a.Sample()
				a.AdvanceInto(&prev, &d)
				r.sample()
				cur := r.totals
				rd.Add(Sub64(rprev, cur))
				rprev = cur
			}
			if a.Totals() != r.totals || a.last != r.last || prev != rprev || d != rd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceIntoPanicsOnBackwards(t *testing.T) {
	a := NewAccumulator(New())
	a.AddDirect(User, EvCycles, 5)
	prev := a.Totals()
	prev.Counts[User][EvCycles] = 6
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceInto accepted counters running backwards")
		}
	}()
	var d Delta
	a.AdvanceInto(&prev, &d)
}
