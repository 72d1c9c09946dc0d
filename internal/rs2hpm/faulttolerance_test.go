package rs2hpm

// Failure-path tests for the collection stack: the daemon's ERR response
// for fallible sources, the Service's retry budget and gap-marking, its
// kept connection across a framing failure and a daemon restart, and the
// reset-aware delta segmentation the reducer relies on when a log spans
// a daemon restart.

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/hpm"
)

// TestDaemonReportsFailedRead: a source whose every read fails turns into
// an ERR response on the wire, not a hang or a bogus snapshot.
func TestDaemonReportsFailedRead(t *testing.T) {
	dead := faults.NewUnreliableSource(newFakeSource(4), 1, 1)
	_, addr := startDaemon(t, dead)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Counters(4); err == nil {
		t.Fatal("failing source read succeeded over the wire")
	} else if !strings.Contains(err.Error(), "read node 4") {
		t.Fatalf("wrong error for failed read: %v", err)
	}
	// The connection survives the ERR: the next command still works.
	if ids, err := c.Nodes(); err != nil || len(ids) != 1 {
		t.Fatalf("connection unusable after ERR: ids=%v err=%v", ids, err)
	}
}

// TestCollectorRetriesPastTransientFailures: with a retry budget large
// enough, a flaky source's sweep completes with samples and no gaps, and
// the service retries once per failed read, the batched first read
// included.
func TestCollectorRetriesPastTransientFailures(t *testing.T) {
	flaky := faults.NewUnreliableSource(newFakeSource(7), 99, 0.5)
	_, addr := startDaemon(t, flaky)
	log := NewSampleLog()
	retries0 := telRetries.Value()
	svc := newSweeper(t, addr, ServiceConfig{
		Retries: 50, // vanishingly unlikely to exhaust at rate 0.5
	}, log)
	for sweep := 0; sweep < 20; sweep++ {
		if err := svc.SweepOnce(float64(sweep) * 900); err != nil {
			t.Fatalf("sweep %d failed: %v", sweep, err)
		}
	}
	svc.Close()
	if got := log.Len(7); got != 20 {
		t.Fatalf("collected %d samples, want 20", got)
	}
	if log.GapCount() != 0 {
		t.Fatalf("retried sweeps still gap-marked %d reads", log.GapCount())
	}
	_, fails := flaky.Stats()
	if fails == 0 {
		t.Fatal("flaky source never failed; the test exercised nothing")
	}
	if retries := telRetries.Value() - retries0; retries != uint64(fails) {
		t.Fatalf("%d retries for %d failures", retries, fails)
	}
}

// TestCollectorGapMarksAbandonedReads: past the retry budget the sweep
// gap-marks the node, keeps collecting the others, and accounts for the
// miss in the ledger. A per-node miss does not fail the sweep.
func TestCollectorGapMarksAbandonedReads(t *testing.T) {
	dead := faults.NewUnreliableSource(newFakeSource(2), 1, 1)
	healthy := newFakeSource(9)
	_, addr := startDaemon(t, dead, healthy)
	log := NewSampleLog()
	svc := newSweeper(t, addr, ServiceConfig{Retries: 3}, log)
	if err := svc.SweepOnce(900); err != nil {
		t.Fatalf("a per-node miss failed the sweep: %v", err)
	}
	svc.Close()
	if l := svc.Ledger(); l.Offered != 2 || l.Captured != 1 || l.Gapped != 1 {
		t.Fatalf("ledger %+v, want 2 offered, 1 captured, 1 gapped", l)
	}
	if log.Len(9) != 1 {
		t.Fatal("healthy node was not collected after the dead one failed")
	}
	gaps := log.Gaps(2)
	if len(gaps) != 1 || gaps[0].AtSeconds != 900 || gaps[0].Node != 2 {
		t.Fatalf("gap marker wrong: %+v", gaps)
	}
	reads, _ := dead.Stats()
	if reads != 4 { // 1 batched attempt + 3 retries
		t.Fatalf("dead node read %d times, want 4", reads)
	}
}

// TestRetryOutOfStepDropsConnection: a retried read that ends on a
// framing error, not a daemon ERR, leaves the rest of its response
// unread. The sweep gap-marks the node and closes the connection instead
// of keeping it, so the next sweep starts in step on a fresh one and
// every sweep's read is accounted for.
func TestRetryOutOfStepDropsConnection(t *testing.T) {
	addr := scriptedDaemon(t, map[string]string{
		"NODES":      "NODE 0\nEND\n",
		"MGET 0":     "BATCH 1\nERR 0 read failed\n",
		"COUNTERS 0": "OK 0\nC bogus\nEND\n",
	})
	log := NewSampleLog()
	svc := newSweeper(t, addr, ServiceConfig{Retries: 1}, log)
	for sweep := 0; sweep < 3; sweep++ {
		if err := svc.SweepOnce(float64(sweep)); err == nil {
			t.Errorf("sweep %d over an out-of-step connection reported no failure", sweep)
		}
	}
	svc.Close()
	l := svc.Ledger()
	if l.Offered != 3 || l.Gapped != 3 || log.GapCount() != 3 {
		t.Fatalf("ledger %+v with %d gap marks, want 3 offered reads and 3 gaps", l, log.GapCount())
	}
	if err := l.CrossFoot(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRedialsAfterDaemonRestart: the daemon restarts between
// sweeps. The sweep that finds the kept connection dead closes it, dials
// the restarted daemon within the same sweep and captures every node, so
// the restart costs no sweep.
func TestServiceRedialsAfterDaemonRestart(t *testing.T) {
	srcs := []Source{newFakeSource(0), newFakeSource(1)}
	first, addr := startDaemon(t, srcs...)
	log := NewSampleLog()
	svc := newSweeper(t, addr, ServiceConfig{}, log)
	dials0, discards0 := telPoolDials.Value(), telPoolDiscards.Value()
	if err := svc.SweepOnce(0); err != nil {
		t.Fatal(err)
	}

	first.Close()
	restarted := NewDaemon(srcs...)
	if _, err := restarted.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Close)
	if err := svc.SweepOnce(1); err != nil {
		t.Fatalf("sweep over the dead kept connection: %v", err)
	}
	if err := svc.SweepOnce(2); err != nil {
		t.Fatalf("sweep after the restart: %v", err)
	}
	svc.Close()

	if got := telPoolDials.Value() - dials0; got != 2 {
		t.Errorf("%d dials, want 2: one before the restart, one after", got)
	}
	if got := telPoolDiscards.Value() - discards0; got != 1 {
		t.Errorf("%d discards, want 1: the connection the restart closed", got)
	}
	l := svc.Ledger()
	if l.SweepFailures != 0 || l.Offered != 6 || l.Captured != 6 {
		t.Fatalf("ledger %+v, want no sweep failure and 6 reads offered and captured", l)
	}
	if err := l.CrossFoot(); err != nil {
		t.Fatal(err)
	}
	if log.Len(0) != 3 || log.Len(1) != 3 {
		t.Fatalf("samples per node %d/%d, want 3/3", log.Len(0), log.Len(1))
	}
}

// TestDeltaOverSegmentsAtResets: a log spanning a counter reset excludes
// the reset-crossing interval from delta and covered time instead of
// panicking or inventing counts, and a clean log is unchanged from the
// endpoint difference.
func TestDeltaOverSegmentsAtResets(t *testing.T) {
	log := NewSampleLog()
	at := func(sec float64, cycles uint64) {
		var s hpm.Counts64
		s.Counts[hpm.User][hpm.EvCycles] = cycles
		if err := log.Add(Sample{AtSeconds: sec, Node: 1, Snap: s}); err != nil {
			t.Fatal(err)
		}
	}
	at(0, 1000)
	at(900, 2000)  // +1000 over 900 s
	at(1800, 3000) // +1000 over 900 s
	at(2700, 50)   // daemon restarted: totals re-based below the previous read
	at(3600, 1050) // +1000 over 900 s

	d, covered, resets, ok := log.DeltaOverReport(1, 0, 3600)
	if !ok {
		t.Fatal("segmented window reported no usable interval")
	}
	if got := d.Get(hpm.User, hpm.EvCycles); got != 3000 {
		t.Fatalf("reset-aware delta %d cycles, want 3000", got)
	}
	if covered != 2700 {
		t.Fatalf("covered %v seconds, want 2700", covered)
	}
	if resets != 1 {
		t.Fatalf("detected %d resets, want 1", resets)
	}

	// Clean sub-window: identical to the endpoint difference.
	d2, sec2, ok2 := log.DeltaOver(1, 0, 1800)
	if !ok2 || sec2 != 1800 || d2.Get(hpm.User, hpm.EvCycles) != 2000 {
		t.Fatalf("clean window delta=%d sec=%v ok=%v, want 2000/1800/true",
			d2.Get(hpm.User, hpm.EvCycles), sec2, ok2)
	}

	// A window holding only the reset-crossing interval has no usable data.
	if _, _, ok := log.DeltaOver(1, 1800, 2700); ok {
		t.Fatal("reset-only window claimed a usable delta")
	}
}
