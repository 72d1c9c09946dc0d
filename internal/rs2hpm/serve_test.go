package rs2hpm

// Tests of how the daemon's answers leave it: pipelined commands share
// writes, yet every answer is written before the daemon waits for more
// input. Each test drives serve over a net.Pipe through a conn that
// counts the daemon's write calls, with a deadline on every read so that
// a daemon that holds an answer fails the test instead of hanging it.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// writeCountingConn is the daemon's end of a pipe; it counts the write
// calls serve makes on it.
type writeCountingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeDaemon serves d over one end of a net.Pipe and returns the other
// end and the daemon's end. The daemon's end closes when serve returns.
func pipeDaemon(t *testing.T, d *Daemon) (net.Conn, *writeCountingConn) {
	t.Helper()
	client, server := net.Pipe()
	dc := &writeCountingConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.serve(dc)
		dc.Close()
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return client, dc
}

// send writes one piece of client input.
func send(t *testing.T, c net.Conn, s string) {
	t.Helper()
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, s); err != nil {
		t.Fatalf("write %q: %v", s, err)
	}
}

// receive reads exactly n bytes of the daemon's answers.
func receive(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

// encoded returns the bytes fill writes through a response writer.
func encoded(t *testing.T, fill func(w *bufio.Writer)) []byte {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	fill(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestServeWritesBatchesWhole: a pipelined v1 window and an MGET, with
// full-width counters as in benchFleet, arrive with the bytes
// writeCounters and writeBatch encode, in no more writes than the
// daemon's 64 KB writer needs to hold them.
func TestServeWritesBatchesWhole(t *testing.T) {
	srcs := make([]Source, 200)
	for i := range srcs {
		srcs[i] = newStaticSource(i)
	}
	for _, tc := range []struct {
		name   string
		nodes  int
		mget   bool
		writes int // ⌈answer bytes / 64 KB⌉
	}{
		{"v1-window-72", 72, false, 2},
		{"mget-72", 72, true, 2},
		{"mget-200", 200, true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := make([]string, tc.nodes)
			for i := range args {
				args[i] = strconv.Itoa(i)
			}
			var d *Daemon
			var req string
			var want []byte
			if tc.mget {
				d = NewDaemon(srcs[:tc.nodes]...)
				req = "MGET " + strings.Join(args, " ") + "\n"
				want = encoded(t, func(w *bufio.Writer) { d.writeBatch(w, args) })
			} else {
				d = NewDaemonProtocol(ProtocolV1, srcs[:tc.nodes]...)
				req = "COUNTERS " + strings.Join(args, "\nCOUNTERS ") + "\n"
				want = encoded(t, func(w *bufio.Writer) {
					for id := range args {
						d.writeCounters(w, id)
					}
				})
			}
			if bound := (len(want) + wireBuffer - 1) / wireBuffer; bound != tc.writes {
				t.Fatalf("a %d-byte answer needs %d writes of %d bytes, want %d", len(want), bound, wireBuffer, tc.writes)
			}

			c, dc := pipeDaemon(t, d)
			send(t, c, req)
			if got := receive(t, c, len(want)); !bytes.Equal(got, want) {
				t.Fatalf("answer differs from the encoder's %d bytes", len(want))
			}
			if n := dc.writes.Load(); n > int64(tc.writes) {
				t.Errorf("a %d-byte answer left the daemon in %d writes, want at most %d", len(want), n, tc.writes)
			}
		})
	}
}

// TestServeAnswersSplitCommand: a command that reaches the daemon in two
// writes is answered once its line is complete, and not before.
func TestServeAnswersSplitCommand(t *testing.T) {
	d := NewDaemon(newStaticSource(3))
	want := encoded(t, func(w *bufio.Writer) { d.writeCounters(w, 3) })
	c, _ := pipeDaemon(t, d)

	send(t, c, "COUNT")
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("half a command drew %d bytes (err %v), want none", n, err)
	}
	send(t, c, "ERS 3\n")
	if got := receive(t, c, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("answer %q, want %q", got, want)
	}
}

// TestServeQuitDeliversPipelinedAnswers: a QUIT sent behind pipelined
// commands closes the connection only after every answer is out.
func TestServeQuitDeliversPipelinedAnswers(t *testing.T) {
	d := NewDaemon(newStaticSource(0), newStaticSource(1))
	want := encoded(t, func(w *bufio.Writer) {
		d.writeCounters(w, 0)
		d.writeBatch(w, []string{"0", "1"})
		d.writeNodes(w)
	})
	c, _ := pipeDaemon(t, d)

	send(t, c, "COUNTERS 0\nMGET 0 1\nNODES\nQUIT\n")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("reading to the close: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("before the close the daemon sent %d bytes, want the %d of its three answers", len(got), len(want))
	}
}
