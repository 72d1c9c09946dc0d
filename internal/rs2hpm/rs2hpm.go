// Package rs2hpm reimplements the measurement tool suite the paper is
// built on: Jussi Maki's POWER2 hardware-counter tools with Bill Saphir's
// parallel extensions. It consists of
//
//   - a per-host daemon that serves hardware-counter snapshots over TCP
//     (the real rs2hpmd, swept by a cron script once per sample period,
//     the simulator's 900 s);
//   - a client speaking the daemon's line protocol;
//   - one collection path, Service: each SweepOnce reads every node of
//     every daemon through Client.BatchCounters (one MGET round-trip on
//     a v2 daemon, single-GET reads pipelined in windows of 128 nodes on
//     a v1 one), over one connection kept per daemon between sweeps,
//     into a SampleLog of wrap-corrected 64-bit snapshots. The paper's
//     cron sweep is a one-address Service swept once per period.
//
// The kernel extension of the original is replaced by direct access to
// the simulated SCU monitor; everything from the wire up is real code
// paths (stdlib net, text protocol, concurrent serving).
package rs2hpm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hpm"
)

// Source provides extended counter totals for one node. node.Node
// implements it; the extension from the 32-bit hardware registers to
// 64-bit software totals is the daemon-side "multipass sampling" of the
// original tools.
type Source interface {
	NodeID() int
	Counters() hpm.Counts64
}

// Armer is the optional extension a Source may implement to let the
// daemon re-program its counter selection remotely (ARM command).
type Armer interface {
	ArmSelection(name string) error
}

// TrySource is the optional extension a Source may implement when its
// reads can fail (a flaky kernel extension, an injected fault schedule —
// see faults.UnreliableSource). The daemon prefers TryCounters when
// available and turns a failure into an ERR response, which the Service
// retries and, past its retry budget, gap-marks.
type TrySource interface {
	TryCounters() (hpm.Counts64, error)
}

// Wire protocol versions. Version 1 is the original single-GET line
// protocol (NODES/COUNTERS/ARM/QUIT); version 2 adds VERSION and the
// batched MGET command. A v2 daemon still speaks every v1 command, and a
// v2 client falls back to single-GET sweeps against a v1 daemon.
const (
	ProtocolV1 = 1
	ProtocolV2 = 2
	// LatestProtocol is what NewDaemon serves.
	LatestProtocol = ProtocolV2
)

// Daemon serves counter snapshots for a set of nodes over TCP. One daemon
// can front many simulated nodes (the real deployment ran one per host;
// serving many keeps tests cheap without changing the protocol).
type Daemon struct {
	protocol int // immutable after construction
	mu       sync.Mutex
	sources  map[int]Source        // guarded by mu
	ln       net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu; the open client connections
	wg       sync.WaitGroup
	closed   bool // guarded by mu
}

// NewDaemon builds a daemon fronting the given sources, speaking the
// latest wire protocol.
func NewDaemon(sources ...Source) *Daemon {
	return NewDaemonProtocol(LatestProtocol, sources...)
}

// NewDaemonProtocol builds a daemon pinned to an older wire protocol
// version — the knob mixed-version fleets (and their tests) use to stand
// up daemons that predate batched collection.
func NewDaemonProtocol(protocol int, sources ...Source) *Daemon {
	if protocol < ProtocolV1 || protocol > LatestProtocol {
		panic(fmt.Sprintf("rs2hpm: unknown protocol version %d", protocol))
	}
	d := &Daemon{
		protocol: protocol,
		sources:  make(map[int]Source, len(sources)),
		conns:    make(map[net.Conn]struct{}),
	}
	for _, s := range sources {
		//hpmlint:ignore guarded construction precedes publication; no other goroutine can hold d yet
		d.sources[s.NodeID()] = s
	}
	return d
}

// AddSource registers another node (e.g. as the cluster boots).
func (d *Daemon) AddSource(s Source) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sources[s.NodeID()] = s
}

// Start listens on addr (use "127.0.0.1:0" in tests) and serves until
// Close. It returns the bound address.
func (d *Daemon) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rs2hpm: listen: %w", err)
	}
	d.mu.Lock()
	d.ln = ln
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serve(conn)
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
			conn.Close()
		}()
	}
}

// wireBuffer sizes the daemon's response writer and the client's read
// buffer, so that a batch moves in few write and read calls: a 72-node
// batch with full-width counters is about 84 KB. It is also the longest
// line the client accepts (bufio.MaxScanTokenSize), which a larger
// buffer would silently raise.
const wireBuffer = 64 << 10

// flushingReader is the daemon's view of a connection's input: it writes
// the buffered answers out before every read, so the daemon flushes only
// when it may wait for the next command and pipelined commands share
// writes. A failed flush is the read's error, which ends the connection.
type flushingReader struct {
	r io.Reader
	w *bufio.Writer
}

func (f flushingReader) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// serve handles one client connection.
func (d *Daemon) serve(conn net.Conn) {
	telDaemonConns.Inc()
	w := bufio.NewWriterSize(countingWriter{conn, telDaemonBytesTx, telDaemonWrites}, wireBuffer)
	sc := bufio.NewScanner(flushingReader{countingReader{conn, telDaemonBytesRx, telDaemonReads}, w})
	// Answers not yet written at return: QUIT's, and those of a last
	// command that ended the input without a newline.
	defer w.Flush()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		telDaemonCmds.Inc()
		switch strings.ToUpper(fields[0]) {
		case "NODES":
			d.writeNodes(w)
		case "COUNTERS":
			if len(fields) != 2 {
				errf(w, "ERR usage: COUNTERS <node>\n")
				break
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				errf(w, "ERR bad node id %q\n", fields[1])
				break
			}
			d.writeCounters(w, id)
		case "ARM":
			if len(fields) != 3 {
				errf(w, "ERR usage: ARM <node|*> <selection>\n")
				break
			}
			d.arm(w, fields[1], fields[2])
		case "VERSION":
			if d.protocol < ProtocolV2 {
				// A v1 daemon predates VERSION.
				errf(w, "ERR unknown command %q\n", fields[0])
				break
			}
			fmt.Fprintf(w, "OK RS2HPM %d\n", d.protocol)
		case "MGET":
			if d.protocol < ProtocolV2 {
				errf(w, "ERR unknown command %q\n", fields[0])
				break
			}
			d.writeBatch(w, fields[1:])
		case "QUIT":
			return
		default:
			errf(w, "ERR unknown command %q\n", fields[0])
		}
	}
}

// errf writes an ERR response and counts it.
func errf(w *bufio.Writer, format string, args ...any) {
	telDaemonErrs.Inc()
	fmt.Fprintf(w, format, args...)
}

// nodeIDs lists the served node IDs in ascending order.
func (d *Daemon) nodeIDs() []int {
	d.mu.Lock()
	ids := make([]int, 0, len(d.sources))
	for id := range d.sources {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Ints(ids)
	return ids
}

func (d *Daemon) writeNodes(w *bufio.Writer) {
	for _, id := range d.nodeIDs() {
		fmt.Fprintf(w, "NODE %d\n", id)
	}
	fmt.Fprintf(w, "END\n")
}

// readNode resolves one node's extended totals, preferring the fallible
// read when the source supports it. Shared by the single-GET and batched
// paths so both report identical failures.
func (d *Daemon) readNode(id int) (hpm.Counts64, error) {
	d.mu.Lock()
	src, ok := d.sources[id]
	d.mu.Unlock()
	if !ok {
		return hpm.Counts64{}, fmt.Errorf("no such node %d", id)
	}
	if ts, ok := src.(TrySource); ok {
		return ts.TryCounters()
	}
	return src.Counters(), nil
}

func (d *Daemon) writeCounters(w *bufio.Writer, id int) {
	totals, err := d.readNode(id)
	if err != nil {
		if strings.HasPrefix(err.Error(), "no such node") {
			errf(w, "ERR %v\n", err)
		} else {
			errf(w, "ERR read node %d: %v\n", id, err)
		}
		return
	}
	fmt.Fprintf(w, "OK %d\n", id)
	writeCounterLines(w, totals)
	fmt.Fprintf(w, "END\n")
}

// counterPrefixes holds each event's "C <ev> <group.idx> <label> " line
// prefix, the part of a counter line that never changes.
var counterPrefixes = func() (p [hpm.NumEvents][]byte) {
	for ev := range p {
		info := hpm.Info(hpm.Event(ev))
		p[ev] = fmt.Appendf(nil, "C %d %s.%d %s ", ev, info.Group, info.Index, info.Label)
	}
	return p
}()

// maxCounterLine bounds one counter line: the longest prefix and two
// 20-digit values with their separator and newline.
var maxCounterLine = func() int {
	n := 0
	for _, p := range counterPrefixes {
		n = max(n, len(p))
	}
	return n + 2*20 + 2
}()

// writeCounterLines emits the per-event C lines of one snapshot,
// "C <ev> <group.idx> <label> <user> <sys>", without allocating: each
// line is appended into the writer's free buffer space, flushed first
// when a line might not fit. A failed flush is sticky, and the caller's
// own Flush reports it.
func writeCounterLines(w *bufio.Writer, totals hpm.Counts64) {
	for ev, prefix := range counterPrefixes {
		if w.Available() < maxCounterLine {
			w.Flush()
		}
		b := append(w.AvailableBuffer(), prefix...)
		b = strconv.AppendUint(b, totals.Counts[hpm.User][ev], 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, totals.Counts[hpm.System][ev], 10)
		w.Write(append(b, '\n'))
	}
}

// arm re-programs one node's (or every node's, for "*") counter selection.
func (d *Daemon) arm(w *bufio.Writer, nodeArg, selection string) {
	d.mu.Lock()
	var targets []Source
	if nodeArg == "*" {
		for _, s := range d.sources {
			targets = append(targets, s)
		}
	} else if id, err := strconv.Atoi(nodeArg); err == nil {
		if s, ok := d.sources[id]; ok {
			targets = append(targets, s)
		}
	}
	d.mu.Unlock()
	if len(targets) == 0 {
		errf(w, "ERR no such node %q\n", nodeArg)
		return
	}
	armed := 0
	for _, s := range targets {
		a, ok := s.(Armer)
		if !ok {
			errf(w, "ERR node %d cannot re-arm\n", s.NodeID())
			return
		}
		if err := a.ArmSelection(selection); err != nil {
			errf(w, "ERR %v\n", err)
			return
		}
		armed++
	}
	fmt.Fprintf(w, "OK armed %d node(s) with %s\n", armed, selection)
}

// Close stops the daemon: it stops accepting, closes every client
// connection, idle or mid-request, and waits for their goroutines.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	if d.ln != nil {
		d.ln.Close()
	}
	for conn := range d.conns {
		conn.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
}

// Client speaks the daemon protocol over one TCP connection.
type Client struct {
	conn  net.Conn
	sc    *bufio.Scanner
	w     *bufio.Writer
	proto int // 0 until negotiated; then the daemon's wire version
}

// Dial connects to a daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rs2hpm: dial %s: %w", addr, err)
	}
	telClientDials.Inc()
	sc := bufio.NewScanner(countingReader{conn, telClientBytesRx, telClientReads})
	sc.Buffer(make([]byte, wireBuffer), wireBuffer)
	return &Client{
		conn: conn,
		sc:   sc,
		w:    bufio.NewWriter(countingWriter{conn, telClientBytesTx, telClientWrites}),
	}, nil
}

// Close terminates the session.
func (c *Client) Close() error {
	fmt.Fprintf(c.w, "QUIT\n")
	c.w.Flush()
	return c.conn.Close()
}

var errProtocol = errors.New("rs2hpm: protocol error")

// daemonError is an ERR response the daemon sent in place of one node's
// snapshot. Unlike every other protocol error it leaves the response
// stream in step, so a batch records it against that node and reads on.
type daemonError struct{ msg string }

func (e *daemonError) Error() string { return errProtocol.Error() + ": " + e.msg }
func (e *daemonError) Unwrap() error { return errProtocol }

// outOfStep reports whether err may have left the connection's response
// stream out of step: any error but a daemon's ERR.
func outOfStep(err error) bool {
	if err == nil {
		return false
	}
	var de *daemonError
	return !errors.As(err, &de)
}

// parseKeyInt parses a line that must be exactly key, one space and one
// decimal integer in strconv.Atoi's syntax, such as "NODE 5".
func parseKeyInt(line []byte, key string) (int, bool) {
	if len(line) <= len(key)+1 || string(line[:len(key)]) != key || line[len(key)] != ' ' {
		return 0, false
	}
	n, err := strconv.Atoi(string(line[len(key)+1:]))
	return n, err == nil
}

// Nodes lists the node IDs the daemon serves.
func (c *Client) Nodes() ([]int, error) {
	c.w.WriteString("NODES\n")
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	var ids []int
	for c.sc.Scan() {
		line := bytes.TrimSpace(c.sc.Bytes())
		if string(line) == "END" {
			return ids, nil
		}
		if bytes.HasPrefix(line, []byte("ERR")) {
			return nil, fmt.Errorf("%w: %s", errProtocol, line)
		}
		id, ok := parseKeyInt(line, "NODE")
		if !ok {
			return nil, fmt.Errorf("%w: bad line %q", errProtocol, line)
		}
		ids = append(ids, id)
	}
	return nil, fmt.Errorf("%w: connection closed mid-response", errProtocol)
}

// Counters fetches the current extended counter totals for one node. A
// daemon-reported failure leaves the connection usable.
func (c *Client) Counters(id int) (hpm.Counts64, error) {
	c.requestCounters(id)
	if err := c.w.Flush(); err != nil {
		return hpm.Counts64{}, err
	}
	return c.readCounters(id)
}

// requestCounters buffers one "COUNTERS <id>" request.
func (c *Client) requestCounters(id int) {
	c.w.WriteString("COUNTERS ")
	c.w.Write(strconv.AppendInt(c.w.AvailableBuffer(), int64(id), 10))
	c.w.WriteByte('\n')
}

// readCounters reads the response to one COUNTERS request for node id:
// "OK <id>", the node's counter lines and END, or a single ERR line,
// returned as a *daemonError. Any other error means the stream is out of
// step and the connection must be dropped.
func (c *Client) readCounters(id int) (hpm.Counts64, error) {
	if !c.sc.Scan() {
		return hpm.Counts64{}, fmt.Errorf("%w: connection closed mid-response", errProtocol)
	}
	line := bytes.TrimSpace(c.sc.Bytes())
	if bytes.HasPrefix(line, []byte("ERR")) {
		return hpm.Counts64{}, &daemonError{string(line)}
	}
	if got, ok := parseKeyInt(line, "OK"); !ok || got != id {
		return hpm.Counts64{}, fmt.Errorf("%w: expected OK %d, got %q", errProtocol, id, line)
	}
	return readBlock(c.sc, id)
}

// readBlock reads one node's counter lines up to END. Shared by the
// single-GET and batched decoders.
func readBlock(sc *bufio.Scanner, id int) (hpm.Counts64, error) {
	var snap hpm.Counts64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if string(line) == "END" {
			return snap, nil
		}
		if err := parseCounterBytes(line, &snap); err != nil {
			return snap, err
		}
	}
	return snap, fmt.Errorf("%w: connection closed mid-block for node %d", errProtocol, id)
}

// parseCounterBytes decodes one counter line into the snapshot: a line
// in exactly the form writeCounterLines emits without allocating, any
// other through parseCounterLine, whose verdict stands.
func parseCounterBytes(line []byte, snap *hpm.Counts64) error {
	ev, user, sys, ok := scanCounterLine(line)
	if !ok {
		return parseCounterLine(string(line), snap)
	}
	snap.Counts[hpm.User][ev] = user
	snap.Counts[hpm.System][ev] = sys
	return nil
}

// scanCounterLine reads a line that is an event's counterPrefixes entry
// followed by two decimal values and a single space between them. ok is
// false for any other line.
func scanCounterLine(line []byte) (ev int, user, sys uint64, ok bool) {
	for i := 2; i < min(len(line), 4) && '0' <= line[i] && line[i] <= '9'; i++ {
		ev = 10*ev + int(line[i]-'0')
	}
	if ev >= int(hpm.NumEvents) || !bytes.HasPrefix(line, counterPrefixes[ev]) {
		return 0, 0, 0, false
	}
	values := line[len(counterPrefixes[ev]):]
	sp := bytes.IndexByte(values, ' ')
	if sp < 0 {
		return 0, 0, 0, false
	}
	user, err1 := strconv.ParseUint(string(values[:sp]), 10, 64)
	sys, err2 := strconv.ParseUint(string(values[sp+1:]), 10, 64)
	return ev, user, sys, err1 == nil && err2 == nil
}

// parseCounterLine decodes one "C <ev> <group.idx> <label> <user> <sys>"
// line into the snapshot. It accepts any whitespace between fields and
// is the reference parseCounterBytes is held to.
func parseCounterLine(line string, snap *hpm.Counts64) error {
	fields := strings.Fields(line)
	if len(fields) != 6 || fields[0] != "C" {
		return fmt.Errorf("%w: bad counter line %q", errProtocol, line)
	}
	ev, err1 := strconv.Atoi(fields[1])
	user, err2 := strconv.ParseUint(fields[4], 10, 64)
	sys, err3 := strconv.ParseUint(fields[5], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || ev < 0 || ev >= int(hpm.NumEvents) {
		return fmt.Errorf("%w: bad counter line %q", errProtocol, line)
	}
	snap.Counts[hpm.User][ev] = user
	snap.Counts[hpm.System][ev] = sys
	return nil
}

// Arm asks the daemon to re-program a node's counter selection; pass
// node -1 to arm every node the daemon serves.
func (c *Client) Arm(node int, selection string) error {
	target := strconv.Itoa(node)
	if node < 0 {
		target = "*"
	}
	fmt.Fprintf(c.w, "ARM %s %s\n", target, selection)
	if err := c.w.Flush(); err != nil {
		return err
	}
	if !c.sc.Scan() {
		return fmt.Errorf("%w: connection closed", errProtocol)
	}
	line := strings.TrimSpace(c.sc.Text())
	if !strings.HasPrefix(line, "OK") {
		return fmt.Errorf("%w: %s", errProtocol, line)
	}
	return nil
}

// Sample is one timestamped snapshot of one node's extended counters.
type Sample struct {
	AtSeconds float64
	Node      int
	Snap      hpm.Counts64
}

// Gap marks a scheduled sample that was never captured: the Service
// records one when a node read fails past its retry budget, so the
// record is explicit about what is missing instead of silently shorter.
type Gap struct {
	AtSeconds float64
	Node      int
	Reason    string
}

// SampleLog accumulates samples and answers wrap-corrected delta queries.
// It is the in-memory form of the files the cron sweep wrote.
type SampleLog struct {
	mu      sync.Mutex
	samples map[int][]Sample // guarded by mu; per node, in time order
	gaps    map[int][]Gap    // guarded by mu; per node, in time order
}

// NewSampleLog returns an empty log.
func NewSampleLog() *SampleLog {
	return &SampleLog{samples: make(map[int][]Sample), gaps: make(map[int][]Gap)}
}

// AddGap records a missing sample for a node.
func (l *SampleLog) AddGap(g Gap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gaps[g.Node] = append(l.gaps[g.Node], g)
}

// Gaps returns a copy of the gap markers for one node.
func (l *SampleLog) Gaps(node int) []Gap {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Gap, len(l.gaps[node]))
	copy(out, l.gaps[node])
	return out
}

// GapCount reports the total gap markers across all nodes.
func (l *SampleLog) GapCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, gs := range l.gaps {
		n += len(gs)
	}
	return n
}

// Add appends a sample; samples for one node must arrive in time order.
func (l *SampleLog) Add(s Sample) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ss := l.samples[s.Node]
	if len(ss) > 0 && ss[len(ss)-1].AtSeconds > s.AtSeconds {
		return fmt.Errorf("rs2hpm: out-of-order sample for node %d: %v after %v",
			s.Node, s.AtSeconds, ss[len(ss)-1].AtSeconds)
	}
	l.samples[s.Node] = append(ss, s)
	return nil
}

// Nodes lists node IDs with at least one sample.
func (l *SampleLog) Nodes() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int, 0, len(l.samples))
	for id := range l.samples {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Len reports the number of samples held for a node.
func (l *SampleLog) Len(node int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples[node])
}

// TotalSamples reports the samples held across all nodes — the "captured"
// column of the collection ledger.
func (l *SampleLog) TotalSamples() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ss := range l.samples {
		n += len(ss)
	}
	return n
}

// DeltaOver returns the wrap-corrected counter delta and the covered
// observation time between samples in [t0, t1] for one node. ok is false
// when no interval in the window is usable. On a clean log this equals
// the old endpoint difference; on a log with counter resets it is the
// reset-aware sum DeltaOverReport computes.
func (l *SampleLog) DeltaOver(node int, t0, t1 float64) (d hpm.Delta, seconds float64, ok bool) {
	d, seconds, _, ok = l.DeltaOverReport(node, t0, t1)
	return d, seconds, ok
}

// DeltaOverReport walks the samples in [t0, t1] pairwise and sums the
// deltas of the usable intervals. An interval whose counters ran
// backwards spans a counter reset (daemon restart, node reboot): its
// counts are unknowable, so it is excluded from both the delta and the
// covered seconds and reported in resets instead — the sampling record
// re-baselines rather than inventing counts. ok is false when no usable
// interval exists. Extended counters never wrap in a campaign; 32-bit
// wrap handling lives in hpm.Accumulator on the daemon side.
func (l *SampleLog) DeltaOverReport(node int, t0, t1 float64) (d hpm.Delta, covered float64, resets int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var prev *Sample
	for i := range l.samples[node] {
		s := &l.samples[node][i]
		if s.AtSeconds < t0 || s.AtSeconds > t1 {
			continue
		}
		if prev != nil {
			if hpm.RanBackwards(prev.Snap, s.Snap) {
				resets++
			} else {
				d.Add(hpm.Sub64(prev.Snap, s.Snap))
				covered += s.AtSeconds - prev.AtSeconds
				ok = true
			}
		}
		prev = s
	}
	if !ok {
		return hpm.Delta{}, 0, resets, false
	}
	return d, covered, resets, true
}
