package rs2hpm

// CollectorPool: persistent connections for sustained collection. The
// paper's collector dialed every daemon afresh each sweep, once per
// sample period (the simulator's 900 s) — fine at cron cadence, but a
// sustained service re-dialing the fleet every few milliseconds spends
// its time in TCP handshakes. The pool keeps a bounded number of idle
// connections per daemon, health-checks a connection before reuse, and
// re-dials on demand with the Service's Retries/Backoff discipline.

import (
	"fmt"
	"sync"
)

// PoolConfig tunes a CollectorPool. The zero value keeps 2 idle
// connections per daemon, never retries a failed dial, and skips the
// reuse-time health check.
type PoolConfig struct {
	// Size is the maximum idle connections kept per daemon address;
	// excess returns are closed (evicted). Zero selects 2.
	Size int
	// Retries is how many extra dial attempts a daemon gets before Get
	// gives up.
	Retries int
	// Backoff, when non-nil, runs before dial retry attempt k (1-based).
	Backoff func(attempt int)
	// HealthCheck verifies an idle connection with a VERSION probe before
	// handing it out; a connection that fails the probe is discarded and
	// replaced by a fresh dial.
	HealthCheck bool
}

// CollectorPool holds persistent client connections to a fleet of
// daemons, keyed by address.
type CollectorPool struct {
	cfg    PoolConfig
	mu     sync.Mutex
	idle   map[string][]*Client // guarded by mu
	closed bool                 // guarded by mu
}

// NewCollectorPool builds an empty pool; connections are dialed on
// demand by Get.
func NewCollectorPool(cfg PoolConfig) *CollectorPool {
	if cfg.Size <= 0 {
		cfg.Size = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	return &CollectorPool{cfg: cfg, idle: make(map[string][]*Client)}
}

// Get returns a connection to the daemon at addr: a pooled idle one when
// available (health-checked if configured), a fresh dial otherwise. The
// caller must return it with Put or drop it with Discard.
func (p *CollectorPool) Get(addr string) (*Client, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("rs2hpm: pool is closed")
		}
		var c *Client
		if conns := p.idle[addr]; len(conns) > 0 {
			c = conns[len(conns)-1]
			p.idle[addr] = conns[:len(conns)-1]
		}
		p.mu.Unlock()
		if c == nil {
			break // nothing idle: dial
		}
		if p.cfg.HealthCheck && !p.healthy(c) {
			telPoolHealthFails.Inc()
			c.Close()
			continue // try the next idle conn, or fall through to dial
		}
		telPoolReuses.Inc()
		return c, nil
	}
	return p.dial(addr)
}

// healthy probes the connection with VERSION. Any well-formed response —
// including a v1 daemon's unknown-command ERR — proves the connection
// alive; a transport or framing failure condemns it.
func (p *CollectorPool) healthy(c *Client) bool {
	_, err := c.ServerVersion()
	return err == nil
}

// dial opens a fresh connection with the configured retry budget.
func (p *CollectorPool) dial(addr string) (*Client, error) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		if attempt > 0 && p.cfg.Backoff != nil {
			p.cfg.Backoff(attempt)
		}
		c, err := Dial(addr)
		if err == nil {
			telPoolDials.Inc()
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("rs2hpm: pool dial %s after %d attempt(s): %w",
		addr, p.cfg.Retries+1, lastErr)
}

// Put returns a healthy connection to the pool for reuse. Past the
// per-daemon idle cap — or after Close — the connection is closed
// instead.
func (p *CollectorPool) Put(c *Client) {
	if c == nil {
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle[c.addr]) < p.cfg.Size {
		p.idle[c.addr] = append(p.idle[c.addr], c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	telPoolEvictions.Inc()
	c.Close()
}

// Discard closes a connection the caller observed failing; the next Get
// will dial a replacement.
func (p *CollectorPool) Discard(c *Client) {
	if c == nil {
		return
	}
	telPoolDiscards.Inc()
	c.Close()
}

// Close closes every idle connection and rejects further Gets.
// Connections checked out at Close time are closed by their holders via
// Put (which now evicts) or Discard.
func (p *CollectorPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = make(map[string][]*Client)
	p.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}
