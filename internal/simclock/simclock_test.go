package simclock

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeHelpers(t *testing.T) {
	if Days(1) != Time(86400) {
		t.Fatalf("Days(1) = %v", Days(1))
	}
	if got := Time(90061.5).String(); got != "1d 01:01:01.50" {
		t.Fatalf("String = %q", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var c Clock
	var order []int
	c.At(Time(30), func() { order = append(order, 3) })
	c.At(Time(10), func() { order = append(order, 1) })
	c.At(Time(20), func() { order = append(order, 2) })
	c.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Now() != Time(30) {
		t.Fatalf("Now = %v", c.Now())
	}
	if c.EventsRun() != 3 {
		t.Fatalf("EventsRun = %d", c.EventsRun())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	var c Clock
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(Time(5), func() { order = append(order, i) })
	}
	c.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var c Clock
	c.At(Time(10), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		c.At(Time(5), func() {})
	})
	c.Run()
}

func TestRunUntilStopsBeforeLaterEvents(t *testing.T) {
	var c Clock
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	c.RunUntil(Time(25))
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d", c.Pending())
	}
	c.Run()
	if len(fired) != 4 {
		t.Fatalf("after full Run fired = %v", fired)
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	var c Clock
	fired := false
	c.At(Time(25), func() { fired = true })
	c.RunUntil(Time(25))
	if !fired {
		t.Fatal("event exactly at limit did not fire")
	}
}

func TestAdvanceTo(t *testing.T) {
	var c Clock
	c.AdvanceTo(Time(100))
	if c.Now() != Time(100) {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestAdvanceToPanicsOverPendingEvent(t *testing.T) {
	var c Clock
	c.At(Time(50), func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo over pending event did not panic")
		}
	}()
	c.AdvanceTo(Time(100))
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	var c Clock
	c.AdvanceTo(Time(10))
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	c.AdvanceTo(Time(5))
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var c Clock
	if c.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled by running events must interleave correctly.
	var c Clock
	var order []string
	c.At(Time(10), func() {
		order = append(order, "a")
		c.At(Time(15), func() { order = append(order, "nested") })
	})
	c.At(Time(20), func() { order = append(order, "b") })
	c.Run()
	want := []string{"a", "nested", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEventOrderProperty(t *testing.T) {
	// For arbitrary event times, execution order must be non-decreasing.
	f := func(raw []uint16) bool {
		var c Clock
		var times []Time
		for _, v := range raw {
			at := Time(v)
			c.At(at, func() { times = append(times, c.Now()) })
		}
		c.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var c Clock
		for j := 0; j < 1000; j++ {
			c.At(Time(j%97), func() {})
		}
		c.Run()
	}
}

func TestEveryUntil(t *testing.T) {
	var c Clock
	var fired []Time
	c.EveryUntil(10, 10, 45, func(at Time) { fired = append(fired, at) })
	c.Run()
	want := []Time{10, 20, 30, 40}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	// Inclusive limit, and nothing left on the queue afterwards.
	fired = nil
	c2 := &Clock{}
	c2.EveryUntil(5, 5, 15, func(at Time) { fired = append(fired, at) })
	c2.Run()
	if len(fired) != 3 || fired[2] != 15 {
		t.Fatalf("inclusive-limit firings = %v, want [5 10 15]", fired)
	}
	if c2.Pending() != 0 {
		t.Fatalf("%d events left queued past the limit", c2.Pending())
	}
}

func TestEveryUntilBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var c Clock
	c.EveryUntil(0, 0, 10, func(Time) {})
}
