package rs2hpm

// Service: the one collection path. The paper's collector was a cron
// script: dial, read every node, write a file, exit, sleep one sample
// period (the simulator's 900 s). That script is a one-address Service
// swept once per period. Swept continuously over a fleet, the same
// Service keeps one connection per daemon between sweeps, collects a
// full sample set per round-trip (Client.BatchCounters: MGET, with
// single-GET fallback for v1 daemons), and decouples the network side
// from the log with a bounded ingestion queue (IngestQueue). The
// service's ledger accounts for every scheduled node read exactly once:
//
//	offered == captured + gapped + dropped + rejected
//
// where gapped reads failed past the retry budget, dropped hit the
// queue's backpressure bound, and rejected were refused by the log —
// each of the three leaving a gap mark, so the log's gap count
// cross-foots too. Daemons that cannot even report their node list are
// counted as whole-sweep failures rather than inventing per-node rows.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hpm"
)

// ServiceConfig configures a collection Service. Addrs is required;
// everything else has serviceable defaults.
type ServiceConfig struct {
	// Addrs are the daemon addresses the service sweeps.
	Addrs []string
	// Collectors is the number of concurrent sweep workers fanning over
	// Addrs; zero selects min(len(Addrs), 4).
	Collectors int
	// Retries is the retry budget within a sweep: the extra dial attempts
	// a daemon gets, and the extra reads a failed node gets after the
	// batched read. A retry follows its failure at once.
	Retries int
	// Queue tunes the ingestion queue.
	Queue IngestConfig
}

// ServiceLedger is the exact sample accounting of a service's lifetime.
type ServiceLedger struct {
	Sweeps        uint64 // SweepOnce calls
	DaemonSweeps  uint64 // per-daemon sweep attempts
	SweepFailures uint64 // daemon sweeps that failed before the node list was known
	Offered       uint64 // scheduled node reads (nodes listed x sweeps reaching them)
	Captured      uint64 // samples landed in the log
	Gapped        uint64 // reads failed past the retry budget, gap-marked
	Dropped       uint64 // samples lost to queue backpressure, gap-marked
	Rejected      uint64 // samples the log refused (out-of-order), gap-marked
}

// CrossFoot verifies the ledger balances: every scheduled read is
// captured or explicitly gap-marked, never silently lost. Valid once the
// service is closed.
func (l ServiceLedger) CrossFoot() error {
	if got := l.Captured + l.Gapped + l.Dropped + l.Rejected; got != l.Offered {
		return fmt.Errorf("rs2hpm: ledger out of balance: captured %d + gapped %d + dropped %d + rejected %d = %d, offered %d",
			l.Captured, l.Gapped, l.Dropped, l.Rejected, got, l.Offered)
	}
	return nil
}

// Gaps reports the gap-marked reads — the ledger rows reconciled in the
// sample log's gap list.
func (l ServiceLedger) Gaps() uint64 { return l.Gapped + l.Dropped + l.Rejected }

// GapRate is the fraction of scheduled reads that ended as gaps.
func (l ServiceLedger) GapRate() float64 {
	if l.Offered == 0 {
		return 0
	}
	return float64(l.Gaps()) / float64(l.Offered)
}

// Service is a sustained collection service over a fleet of daemons.
type Service struct {
	cfg ServiceConfig
	q   *IngestQueue
	log *SampleLog

	sweeps        atomic.Uint64
	daemonSweeps  atomic.Uint64
	sweepFailures atomic.Uint64
	offered       atomic.Uint64
	gapped        atomic.Uint64

	mu     sync.Mutex
	closed bool // guarded by mu
	// kept[d] is the connection to cfg.Addrs[d] that finished the last
	// clean sweep of that daemon, or nil.
	kept []*Client // guarded by mu
}

// NewService builds a service collecting from cfg.Addrs into log. Close
// it to release its connections and drain its queue.
func NewService(cfg ServiceConfig, log *SampleLog) (*Service, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("rs2hpm: service needs at least one daemon address")
	}
	if cfg.Collectors <= 0 {
		cfg.Collectors = len(cfg.Addrs)
		if cfg.Collectors > 4 {
			cfg.Collectors = 4
		}
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	return &Service{
		cfg:  cfg,
		q:    NewIngestQueue(log, cfg.Queue),
		log:  log,
		kept: make([]*Client, len(cfg.Addrs)),
	}, nil
}

// SweepOnce runs one fleet-wide sweep stamped atSeconds: every daemon's
// nodes read once, fanned across the configured collector workers. It
// returns an error summarising daemon-level failures; per-node misses are
// gap-marked, counted in the ledger, and do not fail the sweep. Sweeps
// may run concurrently, but samples for one node must carry increasing
// stamps to be accepted by the log, so callers sequence their stamps.
func (s *Service) SweepOnce(atSeconds float64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rs2hpm: service is closed")
	}
	s.mu.Unlock()
	s.sweeps.Add(1)
	telServiceSweeps.Inc()

	type result struct {
		addr string
		err  error
	}
	work := make(chan int, len(s.cfg.Addrs))
	results := make(chan result, len(s.cfg.Addrs))
	for i := range s.cfg.Addrs {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Collectors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				results <- result{s.cfg.Addrs[d], s.sweepDaemon(d, atSeconds)}
			}
		}()
	}
	wg.Wait()
	close(results)
	var failed []string
	for r := range results {
		if r.err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", r.addr, r.err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("rs2hpm: sweep at %vs failed %d of %d daemon(s): %v",
			atSeconds, len(failed), len(s.cfg.Addrs), failed)
	}
	return nil
}

// sweepDaemon collects the full node set of daemon d, cfg.Addrs[d],
// once. A kept connection that cannot list the nodes is replaced once
// within the sweep. The connection it used is kept for the next sweep
// only if every response on it came back in step.
func (s *Service) sweepDaemon(d int, atSeconds float64) error {
	s.daemonSweeps.Add(1)
	telServiceDaemons.Inc()
	cl, kept, err := s.take(d)
	if err != nil {
		return s.sweepFailed(err)
	}
	ids, err := cl.Nodes()
	if err != nil && kept {
		// The kept connection died between sweeps (a daemon restart):
		// replace it within this sweep.
		discard(cl)
		if cl, _, err = s.take(d); err != nil {
			return s.sweepFailed(err)
		}
		ids, err = cl.Nodes()
	}
	if err != nil {
		// The node list is unknowable: a whole-sweep failure, not
		// per-node gaps.
		discard(cl)
		return s.sweepFailed(err)
	}
	s.offered.Add(uint64(len(ids)))

	entries, err := cl.BatchCounters(ids)
	if err != nil {
		// Transport/framing failure mid-batch: the connection is
		// poisoned and nothing landed. Gap-mark the whole schedule —
		// the reads were offered and are now unknowable.
		discard(cl)
		for _, id := range ids {
			s.gapMark(id, atSeconds, err)
		}
		return err
	}

	// Retry failed entries individually within the budget, then offer
	// everything that survived to the ingestion queue. A retry that ends
	// out of step poisons the connection: every later failed entry is
	// gap-marked without a retry on it.
	var broken error
	for _, e := range entries {
		if e.Err != nil && broken == nil {
			e.Snap, e.Err = s.retryRead(cl, e.Node, e.Err)
			if outOfStep(e.Err) {
				broken = e.Err
			}
		}
		if e.Err != nil {
			s.gapMark(e.Node, atSeconds, e.Err)
			continue
		}
		s.q.Offer(Sample{AtSeconds: atSeconds, Node: e.Node, Snap: e.Snap})
	}
	if broken != nil {
		discard(cl)
		return broken
	}
	s.keep(d, cl)
	return nil
}

// sweepFailed counts a daemon sweep that failed before its node list
// was known.
func (s *Service) sweepFailed(err error) error {
	s.sweepFailures.Add(1)
	telServiceSweepFails.Inc()
	return err
}

// take hands out the connection kept for daemon d, or dials a fresh one
// within the retry budget. kept reports which it handed out.
func (s *Service) take(d int) (cl *Client, kept bool, err error) {
	s.mu.Lock()
	cl = s.kept[d]
	s.kept[d] = nil
	s.mu.Unlock()
	if cl != nil {
		telPoolReuses.Inc()
		return cl, true, nil
	}
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if cl, err = Dial(s.cfg.Addrs[d]); err == nil {
			telPoolDials.Inc()
			return cl, false, nil
		}
	}
	return nil, false, fmt.Errorf("%w (after %d attempt(s))", err, s.cfg.Retries+1)
}

// keep stores a connection that finished a clean sweep as daemon d's
// for the next sweep. One that comes back after Close, or to a slot an
// overlapping sweep already filled, is closed.
func (s *Service) keep(d int, cl *Client) {
	s.mu.Lock()
	if !s.closed && s.kept[d] == nil {
		s.kept[d] = cl
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	telPoolEvictions.Inc()
	cl.Close()
}

// discard closes a connection that failed mid-sweep; the next sweep of
// its daemon dials afresh.
func discard(cl *Client) {
	telPoolDiscards.Inc()
	cl.Close()
}

// retryRead re-reads one node with the service's retry budget, starting
// from the error the first attempt already produced. It stops early on
// an error that leaves the connection out of step.
func (s *Service) retryRead(cl *Client, id int, firstErr error) (hpm.Counts64, error) {
	lastErr := firstErr
	for attempt := 1; attempt <= s.cfg.Retries && !outOfStep(lastErr); attempt++ {
		telRetries.Inc()
		snap, err := cl.Counters(id)
		if err == nil {
			return snap, nil
		}
		lastErr = err
	}
	return hpm.Counts64{}, lastErr
}

// gapMark records one abandoned read in the ledger and the log.
func (s *Service) gapMark(node int, atSeconds float64, err error) {
	s.gapped.Add(1)
	telServiceGaps.Inc()
	telGaps.Inc()
	s.log.AddGap(Gap{AtSeconds: atSeconds, Node: node, Reason: err.Error()})
}

// Ledger reads the service's sample accounting. Exact once Close has
// returned; mid-flight it is a monitoring snapshot.
func (s *Service) Ledger() ServiceLedger {
	qs := s.q.Stats()
	return ServiceLedger{
		Sweeps:        s.sweeps.Load(),
		DaemonSweeps:  s.daemonSweeps.Load(),
		SweepFailures: s.sweepFailures.Load(),
		Offered:       s.offered.Load(),
		Captured:      qs.Captured,
		Gapped:        s.gapped.Load(),
		Dropped:       qs.Dropped,
		Rejected:      qs.Rejected,
	}
}

// Close shuts the service down: no further sweeps, queue drained into
// the log, kept connections closed. Idempotent; safe after failed
// sweeps.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	kept := s.kept
	s.kept = make([]*Client, len(kept))
	s.mu.Unlock()
	s.q.Close()
	for _, cl := range kept {
		if cl != nil {
			cl.Close()
		}
	}
}
