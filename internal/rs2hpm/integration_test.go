package rs2hpm

// The end-to-end integration test for the collection path: a daemon
// fronting real simulated nodes (one of them flaky, one of them dead) on
// a loopback TCP port, a one-address collection Service driven against it
// with a retry budget, and the telemetry HTTP endpoint served the way
// cmd/rs2hpmd serves it. This is the whole paper pipeline in miniature —
// kernel → counters → daemon → wire → service → log — with the failure
// handling and the self-measurement layered on, asserted from the outside.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/node"
	"repro/internal/telemetry"
)

// alwaysFails is a Source whose reads never succeed — the dead kernel
// extension the service must gap-mark without aborting the sweep.
type alwaysFails struct{ id int }

func (a alwaysFails) NodeID() int            { return a.id }
func (a alwaysFails) Counters() hpm.Counts64 { return hpm.Counts64{} }
func (a alwaysFails) TryCounters() (hpm.Counts64, error) {
	return hpm.Counts64{}, errors.New("injected permanent failure")
}

func TestIntegrationCollectorAgainstFlakyDaemon(t *testing.T) {
	// Bracket the whole test: daemon, web server, and the service's
	// kept connection and drain goroutine must be returned by the
	// Closes below. Registered first so it runs after them.
	before := leakcheck.Take()
	defer leakcheck.Check(t, before)

	k, ok := kernels.ByName("cfd")
	if !ok {
		t.Fatal("cfd kernel missing")
	}

	// The cluster: node 0 healthy, node 1 flaky (transient failures the
	// retry budget should absorb most sweeps), node 2 permanently dead.
	healthy := node.New(node.Config{ID: 0})
	flaky := node.New(node.Config{ID: 1})
	s0, s1 := k.New(1), k.New(2)

	unreliable := faults.NewUnreliableSource(flaky, 42, 0.55)
	daemon := NewDaemon(healthy, unreliable, alwaysFails{id: 2})
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	// The telemetry endpoint, wired exactly as cmd/rs2hpmd wires it.
	web := httptest.NewServer(telemetry.Handler(telemetry.Default))
	defer web.Close()

	// Counter baselines: the registry is process-wide and other tests in
	// this package feed the same handles, so assert on deltas.
	sweeps0 := telServiceSweeps.Value()
	captured0 := telIngestCaptured.Value()
	gaps0 := telGaps.Value()
	readGaps0 := telServiceGaps.Value()
	retries0 := telRetries.Value()
	daemonErrs0 := telDaemonErrs.Value()
	clientRx0 := telClientBytesRx.Value()
	daemonTx0 := telDaemonBytesTx.Value()

	log := NewSampleLog()
	svc := newSweeper(t, addr, ServiceConfig{Retries: 3}, log)

	const sweepCount = 6
	for i := 0; i < sweepCount; i++ {
		// Advance the counters between sweeps, as the daemon's tick loop
		// does.
		healthy.RunLimited(s0, 50_000)
		flaky.RunLimited(s1, 50_000)
		// Node 2 fails past any budget: every sweep gap-marks it, still
		// delivers the other nodes, and does not fail.
		if err := svc.SweepOnce(float64(i) * 900); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	svc.Close()

	// The ledger balances, and the dead node cost one gap per sweep.
	l := svc.Ledger()
	if err := l.CrossFoot(); err != nil {
		t.Error(err)
	}
	if l.Offered != 3*sweepCount || l.Gapped < sweepCount {
		t.Errorf("ledger %+v, want %d offered and >= %d gapped", l, 3*sweepCount, sweepCount)
	}
	// The healthy node delivered every sweep; the dead node none.
	if got := log.Len(0); got != sweepCount {
		t.Errorf("healthy node samples = %d, want %d", got, sweepCount)
	}
	if got := log.Len(2); got != 0 {
		t.Errorf("dead node samples = %d, want 0", got)
	}
	if got := len(log.Gaps(2)); got != sweepCount {
		t.Errorf("dead node gaps = %d, want %d", got, sweepCount)
	}
	// Flaky node: every scheduled sample is either captured or explicitly
	// gap-marked — nothing silently missing.
	if got := log.Len(1) + len(log.Gaps(1)); got != sweepCount {
		t.Errorf("flaky node samples+gaps = %d, want %d", got, sweepCount)
	}
	// The healthy node's counters moved between sweeps.
	if d, secs, ok := log.DeltaOver(0, 0, float64(sweepCount)*900); !ok || secs <= 0 {
		t.Errorf("no usable delta for healthy node (ok=%v secs=%v)", ok, secs)
	} else if d.Get(hpm.User, hpm.EvCycles) == 0 {
		t.Error("healthy node delta shows no cycles")
	}

	// Telemetry: the collection path measured itself. The dead node costs
	// 3 retries per sweep; every failed read of the flaky node was
	// retried, except the fourth of each read that ran out of budget and
	// gap-marked; every abandoned read gap-marked.
	if got := telServiceSweeps.Value() - sweeps0; got != sweepCount {
		t.Errorf("sweeps counter delta = %d, want %d", got, sweepCount)
	}
	wantGaps := uint64(len(log.Gaps(1))) + sweepCount
	if got := telGaps.Value() - gaps0; got != wantGaps {
		t.Errorf("gaps counter delta = %d, want %d", got, wantGaps)
	}
	if got := telServiceGaps.Value() - readGaps0; got != wantGaps {
		t.Errorf("read_gaps counter delta = %d, want %d", got, wantGaps)
	}
	if got := telIngestCaptured.Value() - captured0; got != uint64(log.Len(0)+log.Len(1)+log.Len(2)) {
		t.Errorf("captured counter delta = %d, want %d", got, log.Len(0)+log.Len(1)+log.Len(2))
	}
	_, flakyFails := unreliable.Stats()
	wantRetries := uint64(flakyFails) - uint64(len(log.Gaps(1))) + 3*sweepCount
	if got := telRetries.Value() - retries0; got != wantRetries || flakyFails == 0 {
		t.Errorf("retries counter delta = %d, want %d (%d flaky failures)", got, wantRetries, flakyFails)
	}
	// Every failed read produced a daemon-side ERR response.
	if got := telDaemonErrs.Value() - daemonErrs0; got < uint64((3+1)*sweepCount) {
		t.Errorf("daemon errors delta = %d, want >= %d (dead node, %d attempts/sweep)", got, 4*sweepCount, 4)
	}
	// Bytes moved on the wire, both ends.
	if telClientBytesRx.Value() == clientRx0 || telDaemonBytesTx.Value() == daemonTx0 {
		t.Error("wire byte counters did not move")
	}

	// The /metrics endpoint serves the same live counters in Prometheus
	// text — the acceptance criterion's `curl /metrics`.
	body := httpGet(t, web.URL+"/metrics")
	for _, want := range []string{
		"# TYPE rs2hpm_service_sweeps counter",
		"rs2hpm_service_sweeps",
		"rs2hpm_service_read_gaps",
		"rs2hpm_collector_gaps",
		"rs2hpm_collector_retries",
		"rs2hpm_daemon_bytes_tx",
		"rs2hpm_client_bytes_rx",
		"rs2hpm_daemon_reads",
		"rs2hpm_daemon_writes",
		"rs2hpm_client_reads",
		"rs2hpm_client_writes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Spot-check one live value against the in-process counter.
	wantLine := "rs2hpm_service_sweeps " + uitoa(telServiceSweeps.Value())
	if !strings.Contains(body, wantLine) {
		t.Errorf("/metrics lacks %q in:\n%s", wantLine, firstLines(body, 30))
	}

	// And the expvar-style JSON endpoint decodes with the same names.
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/debug/hpmvars")), &doc); err != nil {
		t.Fatalf("/debug/hpmvars invalid JSON: %v", err)
	}
	if doc.Counters["rs2hpm.service.sweeps"] != telServiceSweeps.Value() {
		t.Errorf("/debug/hpmvars sweeps = %d, want %d",
			doc.Counters["rs2hpm.service.sweeps"], telServiceSweeps.Value())
	}
	if _, ok := doc.Counters["rs2hpm.daemon.conns"]; !ok {
		t.Error("/debug/hpmvars missing rs2hpm.daemon.conns")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
