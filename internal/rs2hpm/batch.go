package rs2hpm

// The batched half of wire protocol v2. The original tools paid one
// round-trip per node per sweep — tolerable for a cron job once per
// sample period (the simulator's 900 s), ruinous for a sustained
// collection service. MGET collects a whole sample set in one
// round-trip:
//
//	-> MGET 0 1 2            (or MGET * for every served node)
//	<- BATCH 3
//	<- OK 0
//	<- C <ev> <group.idx> <label> <user> <sys>   (one per event)
//	<- END
//	<- ERR 1 read failed: ...
//	<- OK 2
//	<- ...
//	<- END
//
// The response carries exactly one block per requested node, in request
// order; a block is either an OK snapshot or a single ERR line naming the
// node, so one dead node cannot poison the rest of the batch. A v1 daemon
// answers MGET with "ERR unknown command", which the client reads as a
// version signal and downgrades to single-GET sweeps for the rest of the
// connection — mixed-version fleets collect correctly, just less cheaply.

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hpm"
)

// BatchEntry is one node's outcome within a batched read: a snapshot, or
// the per-node error the daemon reported in its place.
type BatchEntry struct {
	Node int
	Snap hpm.Counts64
	Err  error // nil when Snap is valid
}

// errUnsupported marks a daemon that does not speak MGET/VERSION — the
// negotiation signal, not a failure.
var errUnsupported = errors.New("rs2hpm: daemon does not speak protocol v2")

// writeBatch serves one MGET command: a count-delimited frame of per-node
// blocks in request order.
func (d *Daemon) writeBatch(w *bufio.Writer, args []string) {
	if len(args) == 0 {
		errf(w, "ERR usage: MGET <node...>|*\n")
		return
	}
	var ids []int
	if len(args) == 1 && args[0] == "*" {
		ids = d.nodeIDs()
	} else {
		for _, a := range args {
			id, err := strconv.Atoi(a)
			if err != nil {
				errf(w, "ERR bad node id %q\n", a)
				return
			}
			ids = append(ids, id)
		}
	}
	telDaemonBatches.Inc()
	fmt.Fprintf(w, "BATCH %d\n", len(ids))
	for _, id := range ids {
		totals, err := d.readNode(id)
		if err != nil {
			// Per-node ERR inside a batch carries the node id in a fixed
			// position so the decoder can attribute it without relying on
			// block order alone.
			telDaemonErrs.Inc()
			fmt.Fprintf(w, "ERR %d %v\n", id, err)
			continue
		}
		fmt.Fprintf(w, "OK %d\n", id)
		writeCounterLines(w, totals)
		fmt.Fprintf(w, "END\n")
	}
}

// decodeBatch reads one MGET response frame off the scanner. want is the
// request's node list; the frame must answer exactly those nodes in that
// order. A top-level "ERR unknown command" maps to errUnsupported so the
// caller can downgrade; any other malformation is a protocol error.
func decodeBatch(sc *bufio.Scanner, want []int) ([]BatchEntry, error) {
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: connection closed before batch header", errProtocol)
	}
	header := strings.TrimSpace(sc.Text())
	if strings.HasPrefix(header, "ERR") {
		if strings.Contains(header, "unknown command") {
			return nil, errUnsupported
		}
		return nil, fmt.Errorf("%w: %s", errProtocol, header)
	}
	var n int
	if _, err := fmt.Sscanf(header, "BATCH %d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad batch header %q", errProtocol, header)
	}
	if n != len(want) {
		return nil, fmt.Errorf("%w: batch answers %d nodes, requested %d", errProtocol, n, len(want))
	}
	entries := make([]BatchEntry, 0, n)
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: connection closed mid-batch (%d of %d blocks)", errProtocol, i, n)
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "ERR "):
			rest := strings.TrimPrefix(line, "ERR ")
			idStr, reason, _ := strings.Cut(rest, " ")
			id, err := strconv.Atoi(idStr)
			if err != nil {
				return nil, fmt.Errorf("%w: bad batch error line %q", errProtocol, line)
			}
			if id != want[i] {
				return nil, fmt.Errorf("%w: batch block %d answers node %d, requested %d", errProtocol, i, id, want[i])
			}
			entries = append(entries, BatchEntry{Node: id, Err: fmt.Errorf("%w: node %d: %s", errProtocol, id, reason)})
		case strings.HasPrefix(line, "OK "):
			id, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "OK ")))
			if err != nil {
				return nil, fmt.Errorf("%w: bad batch block header %q", errProtocol, line)
			}
			if id != want[i] {
				return nil, fmt.Errorf("%w: batch block %d answers node %d, requested %d", errProtocol, i, id, want[i])
			}
			var snap hpm.Counts64
			for {
				if !sc.Scan() {
					return nil, fmt.Errorf("%w: connection closed mid-block for node %d", errProtocol, id)
				}
				body := strings.TrimSpace(sc.Text())
				if body == "END" {
					break
				}
				if err := parseCounterLine(body, &snap); err != nil {
					return nil, err
				}
			}
			entries = append(entries, BatchEntry{Node: id, Snap: snap})
		default:
			return nil, fmt.Errorf("%w: bad batch block header %q", errProtocol, line)
		}
	}
	return entries, nil
}

// ServerVersion probes the daemon's wire version with a VERSION command.
// A daemon that predates VERSION answers with an unknown-command ERR,
// which reports as version 1 — the probe never fails on old daemons.
func (c *Client) ServerVersion() (int, error) {
	if c.proto != 0 {
		return c.proto, nil
	}
	fmt.Fprintf(c.w, "VERSION\n")
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	if !c.sc.Scan() {
		return 0, fmt.Errorf("%w: connection closed", errProtocol)
	}
	line := strings.TrimSpace(c.sc.Text())
	if strings.HasPrefix(line, "ERR") {
		if strings.Contains(line, "unknown command") {
			c.proto = ProtocolV1
			return c.proto, nil
		}
		return 0, fmt.Errorf("%w: %s", errProtocol, line)
	}
	var v int
	if _, err := fmt.Sscanf(line, "OK RS2HPM %d", &v); err != nil || v < ProtocolV1 {
		return 0, fmt.Errorf("%w: bad version response %q", errProtocol, line)
	}
	c.proto = v
	return v, nil
}

// BatchCounters fetches the given nodes' totals in one round-trip when
// the daemon speaks protocol v2, and transparently falls back to per-node
// single-GET reads against a v1 daemon. The returned slice always has one
// entry per requested node, in request order; per-node failures land in
// the entry's Err instead of failing the call. The error return is
// reserved for transport and framing failures, after which the
// connection should be discarded.
func (c *Client) BatchCounters(ids []int) ([]BatchEntry, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if c.proto == ProtocolV1 {
		return c.batchFallback(ids)
	}
	var req strings.Builder
	req.WriteString("MGET")
	for _, id := range ids {
		req.WriteByte(' ')
		req.WriteString(strconv.Itoa(id))
	}
	req.WriteByte('\n')
	if _, err := c.w.WriteString(req.String()); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	entries, err := decodeBatch(c.sc, ids)
	if errors.Is(err, errUnsupported) {
		// Negotiated down: remember, count, and collect the old way.
		c.proto = ProtocolV1
		telClientFallbacks.Inc()
		return c.batchFallback(ids)
	}
	if err != nil {
		return nil, err
	}
	c.proto = ProtocolV2
	telClientBatches.Inc()
	return entries, nil
}

// batchFallback emulates one batched read with per-node single-GET
// round-trips — the v1 path, same shape out.
func (c *Client) batchFallback(ids []int) ([]BatchEntry, error) {
	entries := make([]BatchEntry, 0, len(ids))
	for _, id := range ids {
		snap, err := c.Counters(id)
		if err != nil {
			// A daemon-reported ERR response is a per-node outcome;
			// anything else (transport, framing) poisons the connection
			// and fails the whole batch, matching the v2 contract.
			if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), ": ERR") {
				return nil, err
			}
			entries = append(entries, BatchEntry{Node: id, Err: err})
			continue
		}
		entries = append(entries, BatchEntry{Node: id, Snap: snap})
	}
	return entries, nil
}
