package rs2hpm

// IngestQueue: the bounded buffer between the network side of sustained
// collection and the sample log. Collectors offer samples; a single drain
// goroutine appends them to the log. The queue's depth bounds how far the
// network side can run ahead of the log, and the backpressure policy says
// what happens at the bound: block the collector (lossless, the default)
// or drop the sample with an explicit gap mark (bounded latency). Nothing
// is ever silently lost — every drop and every rejection is counted in
// telemetry and reconciled as a gap in the log, so
//
//	offered == enqueued + dropped
//	enqueued == captured + rejected        (once the queue is closed)
//
// cross-foot exactly, the same discipline the faults coverage ledger
// enforces for the campaign path.

import (
	"sync"
	"sync/atomic"
	"time"
)

// BackpressurePolicy says what Offer does when the queue is full.
type BackpressurePolicy uint8

const (
	// BlockOnFull makes Offer wait for space: lossless, and the
	// collector's sweep rate degrades to the log's drain rate.
	BlockOnFull BackpressurePolicy = iota
	// DropWithGap makes Offer discard the sample and record a gap mark
	// for it: the sweep rate is preserved and the loss is explicit.
	DropWithGap
)

// String names the policy for flags and telemetry labels.
func (p BackpressurePolicy) String() string {
	if p == DropWithGap {
		return "drop"
	}
	return "block"
}

// IngestConfig tunes an IngestQueue. The zero value is a 256-deep
// blocking queue with no drain throttle.
type IngestConfig struct {
	// Depth is the queue capacity in samples; zero selects 256.
	Depth int
	// Policy is the full-queue behavior.
	Policy BackpressurePolicy
	// SinkDelay, when non-zero, sleeps this long before each log append —
	// a drain throttle that models a slow sample-log writer. It exists
	// for load tests that need to force the backpressure path
	// deterministically; production configs leave it zero.
	SinkDelay time.Duration
}

// IngestStats is a point-in-time reading of the queue's ledger columns.
type IngestStats struct {
	Offered  uint64 // samples presented to Offer
	Enqueued uint64 // samples accepted into the queue
	Dropped  uint64 // samples rejected at the bound (policy or shutdown), gap-marked
	Captured uint64 // samples the drain appended to the log
	Rejected uint64 // samples the log refused (out-of-order), gap-marked
}

// IngestQueue is a bounded sample queue draining into a SampleLog.
type IngestQueue struct {
	cfg     IngestConfig
	log     *SampleLog
	ch      chan Sample
	closeCh chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	offered  atomic.Uint64
	enqueued atomic.Uint64
	dropped  atomic.Uint64
	captured atomic.Uint64
	rejected atomic.Uint64
}

// NewIngestQueue builds the queue and starts its drain goroutine; Close
// stops it.
func NewIngestQueue(log *SampleLog, cfg IngestConfig) *IngestQueue {
	if cfg.Depth <= 0 {
		cfg.Depth = 256
	}
	q := &IngestQueue{
		cfg:     cfg,
		log:     log,
		ch:      make(chan Sample, cfg.Depth),
		closeCh: make(chan struct{}),
	}
	q.wg.Add(1)
	go q.drain()
	return q
}

// Offer presents one sample for ingestion. It reports whether the sample
// was accepted; a false return means the sample was dropped and a gap
// mark now stands in its place. Under BlockOnFull a full queue blocks the
// caller until space frees (or the queue closes); under DropWithGap it
// drops immediately.
func (q *IngestQueue) Offer(s Sample) bool {
	q.offered.Add(1)
	telIngestOffered.Inc()
	select {
	case <-q.closeCh:
		// The drain is gone; a buffered send would succeed and strand the
		// sample, so refuse up front. (Producers racing Close can still
		// slip one into the buffer — that's why Close happens-after
		// producers stop is part of the contract.)
		q.drop(s, "ingest queue closed")
		return false
	default:
	}
	if q.cfg.Policy == DropWithGap {
		select {
		case q.ch <- s:
			q.enqueued.Add(1)
			telIngestEnqueued.Inc()
			return true
		default:
			q.drop(s, "ingest queue full")
			return false
		}
	}
	select {
	case q.ch <- s:
		q.enqueued.Add(1)
		telIngestEnqueued.Inc()
		return true
	case <-q.closeCh:
		// A producer racing shutdown: refuse rather than wedge, and keep
		// the ledger exact.
		q.drop(s, "ingest queue closed")
		return false
	}
}

// drop records the loss: one counter tick, one gap mark.
func (q *IngestQueue) drop(s Sample, reason string) {
	q.dropped.Add(1)
	telIngestDropped.Inc()
	q.log.AddGap(Gap{AtSeconds: s.AtSeconds, Node: s.Node, Reason: reason})
}

// drain is the consumer: queue -> log, one goroutine, FIFO.
func (q *IngestQueue) drain() {
	defer q.wg.Done()
	for {
		select {
		case s := <-q.ch:
			q.ingest(s)
		case <-q.closeCh:
			// Closed: drain whatever the producers managed to enqueue,
			// then exit. Close happens-after producers stop, so an empty
			// channel here is final.
			for {
				select {
				case s := <-q.ch:
					q.ingest(s)
				default:
					return
				}
			}
		}
	}
}

// ingest appends one sample, throttled by SinkDelay when configured. A
// sample the log refuses (out-of-order for its node) becomes a gap mark:
// rejected, not silently lost.
func (q *IngestQueue) ingest(s Sample) {
	if q.cfg.SinkDelay > 0 {
		time.Sleep(q.cfg.SinkDelay)
	}
	if err := q.log.Add(s); err != nil {
		q.rejected.Add(1)
		telIngestRejected.Inc()
		q.log.AddGap(Gap{AtSeconds: s.AtSeconds, Node: s.Node, Reason: err.Error()})
		return
	}
	q.captured.Add(1)
	telIngestCaptured.Inc()
}

// Close stops ingestion: further Offers are refused (and gap-marked), the
// drain empties what was already accepted, and Close returns once the
// drain goroutine has exited. Callers must stop their producers first if
// they need offered == enqueued + dropped to be final. Idempotent.
func (q *IngestQueue) Close() {
	q.once.Do(func() { close(q.closeCh) })
	q.wg.Wait()
}

// Stats reads the ledger columns. Exact once Close has returned and all
// producers have stopped; a live reading is a consistent-enough snapshot
// for monitoring.
func (q *IngestQueue) Stats() IngestStats {
	return IngestStats{
		Offered:  q.offered.Load(),
		Enqueued: q.enqueued.Load(),
		Dropped:  q.dropped.Load(),
		Captured: q.captured.Load(),
		Rejected: q.rejected.Load(),
	}
}
