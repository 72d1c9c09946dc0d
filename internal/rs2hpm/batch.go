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
// connection: the COUNTERS requests of up to 128 nodes go out in one
// write and their responses are read back in order, one round trip per
// window instead of one per node. Mixed-version fleets collect
// correctly, with the same bytes on the wire, just less cheaply.

import (
	"bufio"
	"bytes"
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

// errUnsupported marks a daemon that does not speak MGET — the
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
		ids = make([]int, 0, len(args))
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
	header := bytes.TrimSpace(sc.Bytes())
	if bytes.HasPrefix(header, []byte("ERR")) {
		if bytes.Contains(header, []byte("unknown command")) {
			return nil, errUnsupported
		}
		return nil, fmt.Errorf("%w: %s", errProtocol, header)
	}
	n, ok := parseKeyInt(header, "BATCH")
	if !ok || n < 0 {
		return nil, fmt.Errorf("%w: bad batch header %q", errProtocol, header)
	}
	if n != len(want) {
		return nil, fmt.Errorf("%w: batch answers %d nodes, requested %d", errProtocol, n, len(want))
	}
	entries := make([]BatchEntry, 0, n)
	for i, id := range want {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: connection closed mid-batch (%d of %d blocks)", errProtocol, i, n)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if rest, ok := bytes.CutPrefix(line, []byte("ERR ")); ok {
			idStr, reason, _ := bytes.Cut(rest, []byte(" "))
			got, err := strconv.Atoi(string(idStr))
			if err != nil {
				return nil, fmt.Errorf("%w: bad batch error line %q", errProtocol, line)
			}
			if got != id {
				return nil, fmt.Errorf("%w: batch block %d answers node %d, requested %d", errProtocol, i, got, id)
			}
			entries = append(entries, BatchEntry{Node: id, Err: &daemonError{fmt.Sprintf("node %d: %s", id, reason)}})
			continue
		}
		got, ok := parseKeyInt(line, "OK")
		if !ok {
			return nil, fmt.Errorf("%w: bad batch block header %q", errProtocol, line)
		}
		if got != id {
			return nil, fmt.Errorf("%w: batch block %d answers node %d, requested %d", errProtocol, i, got, id)
		}
		snap, err := readBlock(sc, id)
		if err != nil {
			return nil, err
		}
		entries = append(entries, BatchEntry{Node: id, Snap: snap})
	}
	return entries, nil
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

// fallbackWindow is how many COUNTERS requests batchFallback writes
// before it reads their answers. A request is at most 30 bytes, so a
// window stays under the client's 4 KB write buffer and goes out in one
// flush, which never waits on the daemon reading.
const fallbackWindow = 128

// batchFallback emulates one batched read with single-GET reads against
// a v1 daemon, same shape out: the requests of each window of nodes go
// out together and their responses are read back in order, one round
// trip per window. A daemon-reported ERR is a per-node outcome; anything
// else (transport, framing) leaves the stream out of step and fails the
// whole batch, matching the v2 contract.
func (c *Client) batchFallback(ids []int) ([]BatchEntry, error) {
	entries := make([]BatchEntry, 0, len(ids))
	for len(ids) > 0 {
		window := ids[:min(len(ids), fallbackWindow)]
		ids = ids[len(window):]
		for _, id := range window {
			c.requestCounters(id)
		}
		if err := c.w.Flush(); err != nil {
			return nil, err
		}
		for _, id := range window {
			snap, err := c.readCounters(id)
			if outOfStep(err) {
				return nil, err
			}
			entries = append(entries, BatchEntry{Node: id, Snap: snap, Err: err})
		}
	}
	return entries, nil
}
