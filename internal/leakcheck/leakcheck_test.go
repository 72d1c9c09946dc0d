package leakcheck

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// TestCleanPasses: a body that releases everything it took must pass.
func TestCleanPasses(t *testing.T) {
	before := Take()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { <-done }()
	close(done)
	ln.Close()
	Check(t, before)
}

// TestDetectsGoroutineLeak: a held goroutine is reported. Uses a fake
// testing.TB so the failure is observed, not suffered.
func TestDetectsGoroutineLeak(t *testing.T) {
	before := Take()
	hold := make(chan struct{})
	go func() { <-hold }()
	rec := &recorder{TB: t}
	checkFast(rec, before)
	if !rec.failed {
		t.Error("leaked goroutine not detected")
	}
	close(hold)
}

// TestDetectsFDLeak: a held socket is reported on platforms where FDs
// are countable.
func TestDetectsFDLeak(t *testing.T) {
	if Take().FDs < 0 {
		t.Skip("fd counting unavailable on this platform")
	}
	before := Take()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rec := &recorder{TB: t}
	checkFast(rec, before)
	if !rec.failed {
		t.Error("leaked fd not detected")
	}
}

// checkFast is Check with a tiny settle budget, so the leak tests don't
// spend the full budget waiting for a leak that will never clear.
func checkFast(tb testing.TB, before Snapshot) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		if leaked(before, read()) == "" {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	now := read()
	tb.Errorf("leakcheck: %s", leaked(before, now))
}

// recorder captures Errorf instead of failing the real test.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Errorf(string, ...any) { r.failed = true }
func (r *recorder) Helper()               {}
