// Package leakcheck counts goroutines and open file descriptors before
// and after a test so resource leaks fail loudly. The sustained
// collection service holds sockets and goroutines by design; the soak
// harness and the loopback integration test bracket themselves with a
// Snapshot/Check pair to prove everything is returned on Close. Use it
// only in tests that do not run in parallel — the counts are
// process-wide.
package leakcheck

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// Snapshot is a point-in-time reading of the process's resource counts.
type Snapshot struct {
	Goroutines int
	// FDs is the open file-descriptor count, or -1 where the platform
	// offers no way to read it (then the FD check is skipped).
	FDs int
}

// Take reads the current counts as a baseline. A goroutine already on
// its way out when Take runs (an earlier test's runner, one whose channel
// was just closed) would count in the baseline and hide a leak of the
// same size, so Take reads the goroutine count until it holds steady.
func Take() Snapshot {
	return Snapshot{Goroutines: steadyGoroutines(), FDs: openFDs()}
}

// read reads the current counts once.
func read() Snapshot {
	return Snapshot{Goroutines: runtime.NumGoroutine(), FDs: openFDs()}
}

// steadyReads is how many further reads, a millisecond apart, must agree
// before steadyGoroutines takes a goroutine count as steady.
const steadyReads = 3

// steadyGoroutines reads the goroutine count until steadyReads reads in
// a row agree, giving up with the last read after settleBudget.
func steadyGoroutines() int {
	deadline := time.Now().Add(settleBudget)
	n := runtime.NumGoroutine()
	for same := 0; same < steadyReads && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// openFDs counts entries in /proc/self/fd; -1 if unreadable (non-Linux).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	// The ReadDir call itself holds one descriptor for the directory.
	return len(ents) - 1
}

// settleBudget bounds how long Check waits for counts to fall back to
// the baseline, and how long Take waits for a steady one. Goroutine
// exits and kernel-side socket teardown lag the Close call that
// triggered them, so a leak check that reads the counts immediately
// flakes; 5 s is far beyond any honest teardown.
const settleBudget = 5 * time.Second

// Check fails the test if the process holds more goroutines or file
// descriptors than the before snapshot, after allowing teardown to
// settle. Call it deferred, after every Close in the test body has run.
func Check(tb testing.TB, before Snapshot) {
	tb.Helper()
	deadline := time.Now().Add(settleBudget)
	var now Snapshot
	for {
		now = read()
		if leaked(before, now) == "" {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Errorf("leakcheck: %s (before: %d goroutines / %d fds, after: %d goroutines / %d fds)",
		leaked(before, now), before.Goroutines, before.FDs, now.Goroutines, now.FDs)
}

// leaked names what is still held beyond the baseline, or "" when clean.
func leaked(before, now Snapshot) string {
	switch {
	case now.Goroutines > before.Goroutines:
		return "goroutines leaked"
	case before.FDs >= 0 && now.FDs > before.FDs:
		return "file descriptors leaked"
	}
	return ""
}
