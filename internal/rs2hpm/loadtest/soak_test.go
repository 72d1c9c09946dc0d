package loadtest

// The soak suite: wall-bounded runs of the collection service against
// fleets at fault rates {0, flaky, dead(+slow)}, each bracketed by a
// goroutine/fd leak check and closed with an exact cross-foot of the
// sample ledger. `make soak-smoke` runs exactly these tests under -race;
// the durations are chosen so the whole suite stays CI-cheap while still
// covering hundreds of sweeps.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/rs2hpm"
	"repro/internal/telemetry"
)

// soakBudget is the wall budget per soak case — long enough for hundreds
// of sweeps over loopback, short enough to keep `make ci` pleasant.
const soakBudget = 400 * time.Millisecond

// TestSoakLedgerAcrossFaultRates is the acceptance matrix: fault rates
// {0, flaky, dead}, batched (v2 daemons) and single-GET (v1 daemons),
// each soaked for the wall budget with zero leaked goroutines/fds and an
// exactly cross-footed ledger.
func TestSoakLedgerAcrossFaultRates(t *testing.T) {
	// MGET batches are process-wide telemetry; assert on deltas.
	batches := telemetry.Default.Counter("rs2hpm.client.batches")
	fallbacks := telemetry.Default.Counter("rs2hpm.client.fallbacks")
	cases := []struct {
		name      string
		spec      Spec
		wantGaps  bool // fault injection must actually produce gaps
		wantFails bool // dead daemons must surface as sweep failures
		singleGet bool // an all-v1 fleet: no read may travel as MGET
	}{
		{
			name: "fault-rate-zero",
			spec: Spec{Healthy: 3, NodesPerDaemon: 4, Collectors: 3, Seed: 1},
		},
		{
			name:      "fault-rate-zero-single-get",
			spec:      Spec{Healthy: 3, NodesPerDaemon: 4, LegacyEvery: 1, Collectors: 3, Seed: 1},
			singleGet: true,
		},
		{
			name:     "flaky",
			spec:     Spec{Healthy: 2, Flaky: 2, NodesPerDaemon: 4, FlakyRate: 0.6, Collectors: 4, Retries: 1, Seed: 42},
			wantGaps: true,
		},
		{
			name:      "dead-and-slow",
			spec:      Spec{Healthy: 2, Dead: 2, Slow: 1, NodesPerDaemon: 3, SlowDelay: 100 * time.Microsecond, Collectors: 4, Seed: 7},
			wantFails: true,
		},
		{
			name:      "mixed-version-fleet",
			spec:      Spec{Healthy: 4, Dead: 1, NodesPerDaemon: 4, LegacyEvery: 2, Collectors: 4, Seed: 9},
			wantFails: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := leakcheck.Take()
			batches0, fallbacks0 := batches.Value(), fallbacks.Value()
			h, err := New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sweeps := h.SoakFor(soakBudget)
			h.Close()
			leakcheck.Check(t, before)
			if tc.singleGet && (batches.Value() != batches0 || fallbacks.Value() == fallbacks0) {
				t.Errorf("v1 fleet: %d MGET batches and %d fallbacks, want none and some",
					batches.Value()-batches0, fallbacks.Value()-fallbacks0)
			}

			if sweeps < 10 {
				t.Fatalf("soak managed only %d sweeps; the run proves nothing", sweeps)
			}
			if err := h.Verify(); err != nil {
				t.Fatal(err)
			}
			l := h.Ledger()
			if tc.wantGaps && l.Gapped == 0 {
				t.Error("flaky fleet produced no gap-marked reads")
			}
			if !tc.wantGaps && l.Gapped != 0 {
				t.Errorf("fault-free reads gap-marked %d times", l.Gapped)
			}
			if tc.wantFails && l.SweepFailures == 0 {
				t.Error("dead daemons produced no sweep failures")
			}
			// Healthy-fleet capture is lossless under the default
			// blocking policy: every offered read lands.
			if !tc.wantGaps && l.Captured != l.Offered {
				t.Errorf("captured %d of %d offered reads with no faults injected", l.Captured, l.Offered)
			}
			t.Logf("%s: %d sweeps, offered %d, captured %d, gap rate %.4f",
				tc.name, sweeps, l.Offered, l.Captured, l.GapRate())
		})
	}
}

// TestSoakGapRateBounded: under a seeded flaky fleet with a retry budget,
// the gap rate stays within the analytically expected band. With failure
// probability p and r retries, a read is abandoned with probability
// p^(r+1); the flaky half of the fleet at p=0.5, r=2 abandons ~12.5% of
// its reads, so the fleet-wide rate must sit well under that and above
// zero.
func TestSoakGapRateBounded(t *testing.T) {
	h, err := New(Spec{
		Healthy: 2, Flaky: 2, NodesPerDaemon: 4,
		FlakyRate: 0.5, Retries: 2,
		Collectors: 4, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SoakFor(soakBudget)
	h.Close()
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	l := h.Ledger()
	rate := l.GapRate()
	// Flaky nodes are half the fleet; their abandon probability is
	// 0.5^3 = 12.5%, fleet-wide ~6.25%. Bound generously: the seeded
	// schedule wobbles at finite sweep counts, but an order-of-magnitude
	// excursion means retries or accounting broke.
	if rate <= 0 {
		t.Fatal("flaky fleet produced a zero gap rate; injection is dead")
	}
	if rate > 0.15 {
		t.Fatalf("gap rate %.4f exceeds bound 0.15; retry budget not absorbing transients", rate)
	}
	if l.Gapped != l.Gaps() {
		t.Fatalf("blocking policy dropped/rejected samples: %+v", l)
	}
}

// TestSoakBackpressureDrop forces the bounded queue to its limit: a
// throttled drain behind a shallow queue under the drop policy must shed
// load, and every shed sample must be a counted drop with exactly one
// gap mark — the ledger still cross-foots to the sample.
func TestSoakBackpressureDrop(t *testing.T) {
	before := leakcheck.Take()
	h, err := New(Spec{
		Healthy: 2, NodesPerDaemon: 8,
		Collectors: 2, Seed: 5,
		QueueDepth: 2, Policy: rs2hpm.DropWithGap, SinkDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SoakFor(soakBudget)
	h.Close()
	leakcheck.Check(t, before)

	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	l := h.Ledger()
	if l.Dropped == 0 {
		t.Fatal("throttled drain behind a 2-deep queue dropped nothing; backpressure is not engaging")
	}
	if l.Captured == 0 {
		t.Fatal("drop policy shed everything; the queue is not draining")
	}
	// Spot-check the gap marks name the queue, not the network.
	for _, node := range h.Log.Nodes() {
		for _, g := range h.Log.Gaps(node) {
			if !strings.Contains(g.Reason, "ingest queue") {
				t.Fatalf("unexpected gap reason on healthy fleet: %q", g.Reason)
			}
		}
	}
}

// TestSoakBlockingPolicyIsLossless: the same throttled drain under the
// blocking policy sheds nothing — sweeps slow down instead, and every
// offered sample is captured.
func TestSoakBlockingPolicyIsLossless(t *testing.T) {
	h, err := New(Spec{
		Healthy: 2, NodesPerDaemon: 8,
		Collectors: 2, Seed: 5,
		QueueDepth: 2, Policy: rs2hpm.BlockOnFull, SinkDelay: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SoakFor(soakBudget / 2)
	h.Close()
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	l := h.Ledger()
	if l.Dropped != 0 || l.Captured != l.Offered {
		t.Fatalf("blocking policy lost samples: %+v", l)
	}
}

// TestSoakPoolReusesConnections: a sustained run must not dial per sweep
// — on a healthy fleet the service dials each daemon once and reuses
// that connection for every later sweep.
func TestSoakPoolReusesConnections(t *testing.T) {
	// The connection counters are process-wide telemetry; assert on
	// deltas.
	dials := telemetry.Default.Counter("rs2hpm.pool.dials")
	reuses := telemetry.Default.Counter("rs2hpm.pool.reuses")
	dials0, reuses0 := dials.Value(), reuses.Value()

	h, err := New(Spec{Healthy: 3, NodesPerDaemon: 2, Collectors: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := h.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	l := h.Ledger()
	if l.DaemonSweeps != 150 {
		t.Fatalf("daemon sweeps = %d, want 150", l.DaemonSweeps)
	}
	// 150 daemon-sweeps over 3 kept connections: one dial per daemon,
	// everything else reuse.
	d, r := dials.Value()-dials0, reuses.Value()-reuses0
	if d != 3 || r != 147 {
		t.Errorf("%d dials and %d reuses for 150 daemon-sweeps of 3 daemons, want 3 and 147", d, r)
	}
}

// TestSoakDeterministicGapPattern: same seed, same flaky fleet, same
// sweep count — the gap pattern per node is identical run to run. The
// collectors race, but every fault draw comes from the node's own
// substream, so concurrency cannot smear the schedule.
func TestSoakDeterministicGapPattern(t *testing.T) {
	run := func() map[int]int {
		h, err := New(Spec{
			Healthy: 1, Flaky: 2, NodesPerDaemon: 3,
			FlakyRate: 0.5, Retries: 1,
			Collectors: 3, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			h.Sweep()
		}
		h.Close()
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
		gaps := map[int]int{}
		for _, node := range h.Log.Nodes() {
			gaps[node] = len(h.Log.Gaps(node))
		}
		return gaps
	}
	a, b := run(), run()
	for node, n := range a {
		if b[node] != n {
			t.Fatalf("node %d gapped %d times in run A, %d in run B", node, n, b[node])
		}
	}
}
