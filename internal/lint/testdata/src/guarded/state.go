// Package guarded is a violation fixture for the guarded analyzer: fields
// documented "guarded by mu" touched outside the lock.
package guarded

import "sync"

// tally is shared between a simulation goroutine and a daemon goroutine.
type tally struct {
	mu sync.Mutex
	n  uint64 // guarded by mu
	// orphan is guarded by nosuch, a guard that does not exist.
	orphan int // want `"guarded by nosuch" names no sync\.Mutex/RWMutex field of tally`
	// wrapped is the last count seen, and its annotation wraps: guarded
	// by mu.
	wrapped uint64
	peak    uint64 // Guarded by mu.
}

// Inc locks correctly.
func (t *tally) Inc() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
}

// Racy reads the counter without the lock.
func (t *tally) Racy() uint64 {
	return t.n // want `t\.n is guarded by t\.mu`
}

// RacyAnnotations reads, without the lock, the fields whose annotations
// wrap across comment lines or start with a capital.
func (t *tally) RacyAnnotations() uint64 {
	w := t.wrapped    // want `t\.wrapped is guarded by t\.mu`
	return w + t.peak // want `t\.peak is guarded by t\.mu`
}

// totalLocked follows the caller-holds-the-lock naming convention.
func (t *tally) totalLocked() uint64 { return t.n }

// Spawn locks in the method but not in the goroutine it starts; the
// closure is its own scope because it runs concurrently.
func (t *tally) Spawn() {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() {
		t.n++ // want `t\.n is guarded by t\.mu`
	}()
}

// Sum locks each element; the base expression matches, so this is clean.
func Sum(ts []*tally) uint64 {
	var total uint64
	for _, t := range ts {
		t.mu.Lock()
		total += t.n
		t.mu.Unlock()
	}
	return total
}

// WrongLock locks one tally but reads another.
func WrongLock(a, b *tally) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.n // want `b\.n is guarded by b\.mu`
}

// Approved shows a suppression carrying its mandatory reason.
func Approved(t *tally) uint64 {
	//hpmlint:ignore guarded fixture demonstrating an approved unguarded read
	return t.n
}
