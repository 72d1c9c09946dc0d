package rs2hpm

// Table-driven tests for the batched wire command (MGET) and its version
// negotiation: v2 batches, v1 fallback, partial-batch failure, ERR
// propagation, and 32-bit wrap correction across a batch boundary.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/hpm"
)

// failingSource always errors — the dead kernel extension, batch-side.
type failingSource struct{ id int }

func (f failingSource) NodeID() int            { return f.id }
func (f failingSource) Counters() hpm.Counts64 { return hpm.Counts64{} }
func (f failingSource) TryCounters() (hpm.Counts64, error) {
	return hpm.Counts64{}, errors.New("injected permanent failure")
}

func TestBatchCounters(t *testing.T) {
	cases := []struct {
		name     string
		protocol int
		sources  func() []Source
		ids      []int
		// wantErr[i] true means entry i must carry a per-node error.
		wantErr     []bool
		wantVersion int
	}{
		{
			name:     "v2-all-healthy",
			protocol: ProtocolV2,
			sources: func() []Source {
				return []Source{newFakeSource(0), newFakeSource(1), newFakeSource(2)}
			},
			ids:         []int{0, 1, 2},
			wantErr:     []bool{false, false, false},
			wantVersion: ProtocolV2,
		},
		{
			name:     "v1-daemon-falls-back-to-single-get",
			protocol: ProtocolV1,
			sources: func() []Source {
				return []Source{newFakeSource(0), newFakeSource(1)}
			},
			ids:         []int{0, 1},
			wantErr:     []bool{false, false},
			wantVersion: ProtocolV1,
		},
		{
			name:     "v2-partial-batch-failure",
			protocol: ProtocolV2,
			sources: func() []Source {
				return []Source{newFakeSource(0), failingSource{id: 1}, newFakeSource(2)}
			},
			ids:         []int{0, 1, 2},
			wantErr:     []bool{false, true, false},
			wantVersion: ProtocolV2,
		},
		{
			name:     "v1-partial-failure-propagates-too",
			protocol: ProtocolV1,
			sources: func() []Source {
				return []Source{newFakeSource(0), failingSource{id: 1}}
			},
			ids:         []int{0, 1},
			wantErr:     []bool{false, true},
			wantVersion: ProtocolV1,
		},
		{
			name:     "v2-unknown-node-is-per-entry-err",
			protocol: ProtocolV2,
			sources: func() []Source {
				return []Source{newFakeSource(0)}
			},
			ids:         []int{0, 42},
			wantErr:     []bool{false, true},
			wantVersion: ProtocolV2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcs := tc.sources()
			d := NewDaemonProtocol(tc.protocol, srcs...)
			addr, err := d.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			entries, err := c.BatchCounters(tc.ids)
			if err != nil {
				t.Fatalf("BatchCounters: %v", err)
			}
			if len(entries) != len(tc.ids) {
				t.Fatalf("got %d entries for %d requested nodes", len(entries), len(tc.ids))
			}
			for i, e := range entries {
				if e.Node != tc.ids[i] {
					t.Errorf("entry %d answers node %d, requested %d", i, e.Node, tc.ids[i])
				}
				if (e.Err != nil) != tc.wantErr[i] {
					t.Errorf("entry %d err = %v, want failure=%v", i, e.Err, tc.wantErr[i])
				}
			}
			// The connection is still usable after any mix of outcomes.
			if _, err := c.Nodes(); err != nil {
				t.Fatalf("connection unusable after batch: %v", err)
			}
			// Negotiation: the client learned the daemon's version.
			if c.proto != tc.wantVersion {
				t.Errorf("negotiated version %d, want %d", c.proto, tc.wantVersion)
			}
		})
	}
}

// TestBatchMatchesSingleGet: for healthy sources the batched read and the
// single-GET read return identical snapshots — one wire format, one truth.
func TestBatchMatchesSingleGet(t *testing.T) {
	a, b := newFakeSource(0), newFakeSource(1)
	a.add(hpm.EvCycles, 1234)
	b.add(hpm.EvFXU0Instr, 999)
	_, addr := startDaemon(t, a, b)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.BatchCounters([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		single, err := c.Counters(e.Node)
		if err != nil {
			t.Fatal(err)
		}
		if single != e.Snap {
			t.Errorf("node %d: batch snapshot differs from single-GET", e.Node)
		}
	}
}

// wrapSource feeds a 32-bit monitor through the daemon-side accumulator,
// exactly as node.Node does — the wrap correction under test.
type wrapSource struct {
	id  int
	mu  sync.Mutex
	mon *hpm.Monitor
	acc *hpm.Accumulator
}

func newWrapSource(id int) *wrapSource {
	mon := hpm.New()
	return &wrapSource{id: id, mon: mon, acc: hpm.NewAccumulator(mon)}
}

func (w *wrapSource) NodeID() int { return w.id }
func (w *wrapSource) Counters() hpm.Counts64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.acc.Sample()
	return w.acc.Totals()
}
func (w *wrapSource) add(ev hpm.Event, n uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mon.Add(ev, n)
}

// TestBatchWrapCorrectAcrossBatchBoundary: the 32-bit hardware counter
// wraps between two batched sweeps; the extended totals crossing the
// wire must be wrap-corrected so the log's delta is exact. This is the
// same guarantee the single-GET path has always had, asserted through
// MGET framing.
func TestBatchWrapCorrectAcrossBatchBoundary(t *testing.T) {
	src := newWrapSource(7)
	_, addr := startDaemon(t, src)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	log := NewSampleLog()

	sample := func(at float64) {
		t.Helper()
		entries, err := c.BatchCounters([]int{7})
		if err != nil || len(entries) != 1 || entries[0].Err != nil {
			t.Fatalf("batch at %v: entries=%v err=%v", at, entries, err)
		}
		if err := log.Add(Sample{AtSeconds: at, Node: 7, Snap: entries[0].Snap}); err != nil {
			t.Fatal(err)
		}
	}

	src.add(hpm.EvCycles, math.MaxUint32-50)
	sample(0)
	src.add(hpm.EvCycles, 100) // wraps the 32-bit register between batches
	sample(900)
	src.add(hpm.EvCycles, math.MaxUint32) // nearly a full second lap
	sample(1800)

	d, _, ok := log.DeltaOver(7, 0, 1800)
	if !ok {
		t.Fatal("no usable window")
	}
	if got, want := d.Get(hpm.User, hpm.EvCycles), uint64(100)+math.MaxUint32; got != want {
		t.Fatalf("wrap-corrected delta across batch boundary = %d, want %d", got, want)
	}
}

// TestBatchRawWireErrors: malformed MGET requests get top-level ERRs and
// the connection survives.
func TestBatchRawWireErrors(t *testing.T) {
	_, addr := startDaemon(t, newFakeSource(0))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, raw := range []string{"MGET\n", "MGET abc\n"} {
		if _, err := c.conn.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		c.sc.Scan()
		if !strings.HasPrefix(c.sc.Text(), "ERR") {
			t.Fatalf("%q got %q, want ERR", strings.TrimSpace(raw), c.sc.Text())
		}
	}
	// MGET * answers every served node.
	if _, err := c.conn.Write([]byte("MGET *\n")); err != nil {
		t.Fatal(err)
	}
	entries, err := decodeBatch(c.sc, []int{0})
	if err != nil || len(entries) != 1 || entries[0].Node != 0 || entries[0].Err != nil {
		t.Fatalf("MGET * entries=%v err=%v", entries, err)
	}
}

// TestVersionCommand: the daemon's answer to VERSION on the raw wire,
// from either protocol version.
func TestVersionCommand(t *testing.T) {
	cases := []struct {
		protocol int
		want     string
	}{
		{ProtocolV1, `ERR unknown command "VERSION"`},
		{ProtocolV2, "OK RS2HPM 2"},
	}
	for _, tc := range cases {
		d := NewDaemonProtocol(tc.protocol, newFakeSource(0))
		addr, err := d.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.conn.Write([]byte("VERSION\n")); err != nil {
			t.Fatal(err)
		}
		if !c.sc.Scan() || c.sc.Text() != tc.want {
			t.Errorf("protocol %d answers VERSION with %q, want %q", tc.protocol, c.sc.Text(), tc.want)
		}
		c.Close()
		d.Close()
	}
}

// scriptedDaemon serves connections, one at a time, from a reply table
// keyed by request line, answering any other request as a v1 daemon
// answers an unknown command. It stands in for a daemon that sends what
// the real one never does.
func scriptedDaemon(t *testing.T, replies map[string]string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				reply, ok := replies[sc.Text()]
				if !ok {
					reply = fmt.Sprintf("ERR unknown command %q\n", sc.Text())
				}
				if _, err := io.WriteString(conn, reply); err != nil {
					break
				}
			}
			conn.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// counterBlock is the daemon's answer to COUNTERS for a healthy node.
func counterBlock(t *testing.T, id int, snap hpm.Counts64) string {
	return fmt.Sprintf("OK %d\n", id) + encodeCounterLines(t, snap) + "END\n"
}

// TestBatchFallbackErrorClassification: against a v1 daemon, an ERR
// response is the one failure recorded against its node with the
// connection kept in step. A malformed counter line, even one quoting
// ": ERR", an ERR inside a block, or a block for another node leaves the
// stream out of step, so the batch fails and the service drops the
// connection.
func TestBatchFallbackErrorClassification(t *testing.T) {
	snap := newStaticSource(1).snap
	t.Run("daemon-err-is-per-node", func(t *testing.T) {
		addr := scriptedDaemon(t, map[string]string{
			"COUNTERS 0": "ERR read node 0: boom\n",
			"COUNTERS 1": counterBlock(t, 1, snap),
		})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		entries, err := c.BatchCounters([]int{0, 1})
		if err != nil {
			t.Fatalf("BatchCounters: %v", err)
		}
		if len(entries) != 2 || !errors.Is(entries[0].Err, errProtocol) || entries[1].Err != nil || entries[1].Snap != snap {
			t.Fatalf("entries = %+v", entries)
		}
		if got, err := c.Counters(1); err != nil || got != snap {
			t.Fatalf("connection out of step after a daemon ERR: %v", err)
		}
	})
	for _, tc := range []struct{ name, reply string }{
		{"counter-line-quoting-err", "OK 0\nC 1 a: ERR\nC 2 FXU.2 user.dcache_mis 5 6\nEND\n"},
		{"err-inside-block", "OK 0\nERR read node 0: late\nEND\n"},
		{"block-for-another-node", counterBlock(t, 1, snap)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedDaemon(t, map[string]string{"COUNTERS 0": tc.reply})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			entries, err := c.BatchCounters([]int{0})
			if err == nil {
				t.Fatalf("framing failure became per-node entries %+v; the batch must fail", entries)
			}
			if !errors.Is(err, errProtocol) {
				t.Fatalf("err = %v, want a protocol error", err)
			}
		})
	}
}

// TestOutOfStep: the nil error of every successful node read keeps the
// connection in step without allocating.
func TestOutOfStep(t *testing.T) {
	if outOfStep(nil) {
		t.Fatal("a nil error took the connection out of step")
	}
	if n := testing.AllocsPerRun(100, func() { outOfStep(nil) }); n != 0 {
		t.Errorf("outOfStep(nil) allocates %.1f times", n)
	}
}

// TestBatchFallbackWindows: a v1 batch of more than two windows answers
// every node in request order, with the failing nodes at the first and
// last place of a window and an unknown node inside one recorded against
// themselves, and leaves the connection in step.
func TestBatchFallbackWindows(t *testing.T) {
	const n = 2*fallbackWindow + 44
	failing := map[int]bool{0: true, fallbackWindow: true, 2*fallbackWindow - 1: true, n - 1: true}
	unknown := fallbackWindow / 2
	srcs := make([]Source, n)
	ids := make([]int, n)
	for i := range srcs {
		ids[i] = i
		if failing[i] {
			srcs[i] = failingSource{id: i}
		} else {
			srcs[i] = newStaticSource(i)
		}
	}
	ids[unknown] = 1_000_000
	d := NewDaemonProtocol(ProtocolV1, srcs...)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for round := 0; round < 2; round++ {
		entries, err := c.BatchCounters(ids)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(entries) != n {
			t.Fatalf("round %d: %d entries for %d nodes", round, len(entries), n)
		}
		for i, e := range entries {
			if e.Node != ids[i] {
				t.Fatalf("round %d: entry %d answers node %d, requested %d", round, i, e.Node, ids[i])
			}
			switch {
			case i == unknown:
				if e.Err == nil || !strings.Contains(e.Err.Error(), "no such node") {
					t.Errorf("round %d: unknown node entry err = %v", round, e.Err)
				}
			case failing[i]:
				if e.Err == nil || !strings.Contains(e.Err.Error(), "injected permanent failure") {
					t.Errorf("round %d: failing node %d err = %v", round, i, e.Err)
				}
			case e.Err != nil:
				t.Errorf("round %d: healthy node %d err = %v", round, i, e.Err)
			case e.Snap != srcs[i].Counters():
				t.Errorf("round %d: node %d decoded another node's snapshot", round, i)
			}
		}
	}
	got, err := c.Nodes()
	if err != nil || len(got) != n {
		t.Fatalf("connection out of step after the batches: %d nodes, %v", len(got), err)
	}
}
