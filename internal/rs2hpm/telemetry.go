package rs2hpm

// hpmtel instrumentation for the collection path — the reproduction of
// the paper's own self-measurement ethos applied to the measurement tools
// themselves: how often a read was retried or gap-marked, and the
// bytes the line protocol moved on the wire and the read and write
// calls that moved them (both directions, both ends). The sweep and
// sample counts are the service's and the ingest queue's
// (rs2hpm.service.*, rs2hpm.ingest.*).

import (
	"io"

	"repro/internal/telemetry"
)

var (
	telCollector = telemetry.Default.Scope("rs2hpm.collector")
	telGaps      = telCollector.Counter("gaps")
	telRetries   = telCollector.Counter("retries")

	telClient          = telemetry.Default.Scope("rs2hpm.client")
	telClientDials     = telClient.Counter("dials")
	telClientBytesRx   = telClient.Counter("bytes_rx")
	telClientBytesTx   = telClient.Counter("bytes_tx")
	telClientReads     = telClient.Counter("reads")
	telClientWrites    = telClient.Counter("writes")
	telClientBatches   = telClient.Counter("batches")
	telClientFallbacks = telClient.Counter("fallbacks")

	telDaemon        = telemetry.Default.Scope("rs2hpm.daemon")
	telDaemonConns   = telDaemon.Counter("conns")
	telDaemonCmds    = telDaemon.Counter("commands")
	telDaemonErrs    = telDaemon.Counter("errors")
	telDaemonBytesRx = telDaemon.Counter("bytes_rx")
	telDaemonBytesTx = telDaemon.Counter("bytes_tx")
	telDaemonReads   = telDaemon.Counter("reads")
	telDaemonWrites  = telDaemon.Counter("writes")
	telDaemonBatches = telDaemon.Counter("batches")

	// The sustained-collection layers: the service's kept connections
	// (rs2hpm.pool: fresh dials, reuses, connections dropped after a
	// failure, and ones closed on return), the bounded ingestion queue,
	// and the service that drives them. Every drop and rejection is
	// counted here and reconciled as a gap mark in the sample log, so the
	// telemetry and the coverage ledger cross-foot.
	telPool          = telemetry.Default.Scope("rs2hpm.pool")
	telPoolDials     = telPool.Counter("dials")
	telPoolReuses    = telPool.Counter("reuses")
	telPoolDiscards  = telPool.Counter("discards")
	telPoolEvictions = telPool.Counter("evictions")

	telIngest         = telemetry.Default.Scope("rs2hpm.ingest")
	telIngestOffered  = telIngest.Counter("offered")
	telIngestEnqueued = telIngest.Counter("enqueued")
	telIngestDropped  = telIngest.Counter("dropped")
	telIngestRejected = telIngest.Counter("rejected")
	telIngestCaptured = telIngest.Counter("captured")

	telService           = telemetry.Default.Scope("rs2hpm.service")
	telServiceSweeps     = telService.Counter("sweeps")
	telServiceDaemons    = telService.Counter("daemon_sweeps")
	telServiceSweepFails = telService.Counter("sweep_failures")
	telServiceGaps       = telService.Counter("read_gaps")
)

// countingReader counts the bytes read from the wire and the read calls
// that moved them.
type countingReader struct {
	r     io.Reader
	bytes *telemetry.Counter
	calls *telemetry.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.bytes.Add(uint64(n))
	cr.calls.Inc()
	return n, err
}

// countingWriter counts the bytes written to the wire and the write
// calls that moved them.
type countingWriter struct {
	w     io.Writer
	bytes *telemetry.Counter
	calls *telemetry.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.bytes.Add(uint64(n))
	cw.calls.Inc()
	return n, err
}
