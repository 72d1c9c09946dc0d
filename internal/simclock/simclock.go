// Package simclock is a minimal discrete-event simulation core: a simulated
// clock, a priority queue of timestamped events, and a scheduler that runs
// them in time order.
//
// The campaign layer uses it to advance the cluster through nine months of
// 15-minute sampling intervals, job arrivals, and job completions without
// any wall-clock dependence.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the campaign.
type Time float64

// Infinity is a time later than any event.
const Infinity = Time(math.MaxFloat64)

// Days returns a duration of d days.
func Days(d float64) Time { return Time(d * 86400) }

// Seconds reports the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// String renders the time as d:hh:mm:ss.
func (t Time) String() string {
	s := float64(t)
	d := int(s / 86400)
	s -= float64(float64(d) * 86400)
	h := int(s / 3600)
	s -= float64(float64(h) * 3600)
	m := int(s / 60)
	s -= float64(float64(m) * 60)
	return fmt.Sprintf("%dd %02d:%02d:%05.2f", d, h, m, s)
}

// event is a scheduled callback.
type event struct {
	at  Time
	fn  func()
	seq uint64 // tie-break so same-time events run FIFO
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Clock is a discrete-event scheduler. The zero value is ready to use.
type Clock struct {
	now   Time
	queue eventQueue
	seq   uint64
	ran   uint64
}

// Now reports the current simulated time.
func (c *Clock) Now() Time { return c.now }

// EventsRun reports how many events have executed.
func (c *Clock) EventsRun() uint64 { return c.ran }

// Pending reports how many events are queued.
func (c *Clock) Pending() int { return len(c.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a discrete-event simulation that rewinds time is corrupt.
func (c *Clock) At(t Time, fn func()) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", t, c.now))
	}
	heap.Push(&c.queue, &event{at: t, fn: fn, seq: c.seq})
	c.seq++
}

// EveryUntil schedules fn at start, start+period, ... for every firing
// time not after limit. It never enqueues an event past limit — the
// shape a fixed-horizon sampler wants: when the last tick has run, the
// queue holds nothing of the ticker's.
func (c *Clock) EveryUntil(start, period, limit Time, fn func(Time)) {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive period %v", period))
	}
	var schedule func(Time)
	schedule = func(at Time) {
		if at > limit {
			return
		}
		c.At(at, func() {
			fn(c.now)
			schedule(c.now + period)
		})
	}
	schedule(start)
}

// Step runs the next event, advancing the clock to its time. It reports
// whether an event was run (false when the queue is empty).
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*event)
	c.now = e.at
	c.ran++
	e.fn()
	return true
}

// RunUntil executes events in time order until the queue is exhausted or
// the next event would occur after limit. The clock is left at the time of
// the last executed event (or limit, whichever the caller prefers to read;
// AdvanceTo can move it to limit exactly).
func (c *Clock) RunUntil(limit Time) {
	// queue[0] is the earliest event.
	for len(c.queue) > 0 && c.queue[0].at <= limit {
		c.Step()
	}
}

// Run executes all queued events.
func (c *Clock) Run() { c.RunUntil(Infinity) }

// AdvanceTo moves the clock forward to t without running events; it panics
// if an event earlier than t is pending or if t is in the past.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo(%v) before now %v", t, c.now))
	}
	if len(c.queue) > 0 && c.queue[0].at < t {
		panic(fmt.Sprintf("simclock: AdvanceTo(%v) skips pending event at %v", t, c.queue[0].at))
	}
	c.now = t
}
