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

// Minutes returns a duration of m minutes.
func Minutes(m float64) Time { return Time(m * 60) }

// Hours returns a duration of h hours.
func Hours(h float64) Time { return Time(h * 3600) }

// Days returns a duration of d days.
func Days(d float64) Time { return Time(d * 86400) }

// Seconds reports the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Day reports which campaign day (0-based) the instant falls in.
func (t Time) Day() int { return int(float64(t) / 86400) }

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

// Event is a scheduled callback.
type Event struct {
	At       Time
	Fn       func()
	seq      uint64 // tie-break so same-time events run FIFO
	index    int
	canceled bool
}

// Cancel marks the event so it will be skipped when its time arrives.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether the event was canceled.
func (e *Event) Canceled() bool { return e.canceled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
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

// Pending reports how many events are queued (including canceled ones not
// yet reaped).
func (c *Clock) Pending() int { return len(c.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a discrete-event simulation that rewinds time is corrupt.
func (c *Clock) At(t Time, fn func()) *Event {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", t, c.now))
	}
	e := &Event{At: t, Fn: fn, seq: c.seq}
	c.seq++
	heap.Push(&c.queue, e)
	return e
}

// After schedules fn to run d after the current time.
func (c *Clock) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.At(c.now+d, fn)
}

// Every schedules fn at t, t+period, t+2*period, ... until the returned
// stop function is called. fn receives the firing time.
func (c *Clock) Every(start Time, period Time, fn func(Time)) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive period %v", period))
	}
	stopped := false
	var schedule func(Time)
	schedule = func(at Time) {
		c.At(at, func() {
			if stopped {
				return
			}
			fn(c.now)
			if !stopped {
				schedule(c.now + period)
			}
		})
	}
	schedule(start)
	return func() { stopped = true }
}

// EveryUntil schedules fn at start, start+period, ... for every firing
// time not after limit. Unlike Every it needs no stop function and never
// enqueues an event past limit — the shape a fixed-horizon sampler wants:
// when the last tick has run, the queue holds nothing of the ticker's.
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
// whether an event was run (false when the queue is empty). Canceled events
// are reaped silently without counting as a step.
func (c *Clock) Step() bool {
	for len(c.queue) > 0 {
		e := heap.Pop(&c.queue).(*Event)
		if e.canceled {
			continue
		}
		c.now = e.At
		c.ran++
		e.Fn()
		return true
	}
	return false
}

// RunUntil executes events in time order until the queue is exhausted or
// the next event would occur after limit. The clock is left at the time of
// the last executed event (or limit, whichever the caller prefers to read;
// AdvanceTo can move it to limit exactly).
func (c *Clock) RunUntil(limit Time) {
	for len(c.queue) > 0 {
		// Peek without popping: queue[0] is the earliest event.
		next := c.queue[0]
		if next.canceled {
			heap.Pop(&c.queue)
			continue
		}
		if next.At > limit {
			return
		}
		c.Step()
	}
}

// Run executes all queued events.
func (c *Clock) Run() { c.RunUntil(Infinity) }

// AdvanceTo moves the clock forward to t without running events; it panics
// if an uncanceled event earlier than t is pending or if t is in the past.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo(%v) before now %v", t, c.now))
	}
	for len(c.queue) > 0 && c.queue[0].canceled {
		heap.Pop(&c.queue)
	}
	if len(c.queue) > 0 && c.queue[0].At < t {
		panic(fmt.Sprintf("simclock: AdvanceTo(%v) skips pending event at %v", t, c.queue[0].At))
	}
	c.now = t
}
