package rs2hpm

// Tests for the counter-line codec and the strict line parses of the
// client: the encoder's bytes against the fmt form it replaced, the
// allocation-free paths, and the lines the parses must refuse.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hpm"
)

// encodeCounterLines returns writeCounterLines' output for one snapshot.
func encodeCounterLines(t testing.TB, snap hpm.Counts64) string {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	writeCounterLines(w, snap)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCounterLinesMatchFprintf pins the encoder to the bytes of the
// fmt.Fprintf form it replaced, for the extreme values and seeded random
// ones in either mode.
func TestCounterLinesMatchFprintf(t *testing.T) {
	var snaps []hpm.Counts64
	for _, v := range []uint64{0, 1, math.MaxUint64} {
		for _, pair := range [][2]uint64{{v, v}, {v, 0}, {0, v}} {
			var s hpm.Counts64
			for ev := range s.Counts[hpm.User] {
				s.Counts[hpm.User][ev], s.Counts[hpm.System][ev] = pair[0], pair[1]
			}
			snaps = append(snaps, s)
		}
	}
	rng := rand.New(rand.NewSource(24))
	for k := 0; k < 16; k++ {
		var s hpm.Counts64
		for m := range s.Counts {
			for ev := range s.Counts[m] {
				s.Counts[m][ev] = rng.Uint64() >> rng.Intn(64)
			}
		}
		snaps = append(snaps, s)
	}
	for i, s := range snaps {
		var want strings.Builder
		for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
			info := hpm.Info(ev)
			fmt.Fprintf(&want, "C %d %s.%d %s %d %d\n",
				ev, info.Group, info.Index, info.Label,
				s.Get(hpm.User, ev), s.Get(hpm.System, ev))
		}
		if got := encodeCounterLines(t, s); got != want.String() {
			t.Fatalf("snapshot %d encodes as\n%s\nwant\n%s", i, got, want.String())
		}
	}
}

// TestCodecAllocs: encoding a snapshot and parsing a canonical line, of
// every event and at both ends of the value range, allocate nothing.
// Each run encodes 16 snapshots, several writer buffers' worth, so a
// line appended past the end of the buffer shows.
func TestCodecAllocs(t *testing.T) {
	var maxed hpm.Counts64
	for m := range maxed.Counts {
		for ev := range maxed.Counts[m] {
			maxed.Counts[m][ev] = math.MaxUint64
		}
	}
	w := bufio.NewWriter(io.Discard)
	for _, snap := range []hpm.Counts64{{}, newStaticSource(5).snap, maxed} {
		n := testing.AllocsPerRun(20, func() {
			for k := 0; k < 16; k++ {
				writeCounterLines(w, snap)
			}
		})
		if n != 0 {
			t.Errorf("encoding 16 snapshots allocates %.1f times", n)
		}
		lines := bytes.Split(bytes.TrimSuffix([]byte(encodeCounterLines(t, snap)), []byte("\n")), []byte("\n"))
		var got hpm.Counts64
		var err error
		n = testing.AllocsPerRun(100, func() {
			for _, line := range lines {
				if e := parseCounterBytes(line, &got); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("parsing %d canonical lines allocates %.1f times", len(lines), n)
		}
		if got != snap {
			t.Errorf("canonical lines decode to another snapshot")
		}
	}
}

// cannedClient is a client whose requests go nowhere and whose reads
// come from resp.
func cannedClient(resp string) *Client {
	return &Client{sc: bufio.NewScanner(strings.NewReader(resp)), w: bufio.NewWriter(io.Discard)}
}

// TestStrictLineParses: a NODE or BATCH line is its keyword and exactly
// one decimal integer; trailing text is a protocol error, not a number
// read off the front of the line.
func TestStrictLineParses(t *testing.T) {
	nodes := func(c *Client) error { _, err := c.Nodes(); return err }
	batch := func(c *Client) error { _, err := c.BatchCounters([]int{0, 1}); return err }
	const blocks = "OK 0\nEND\nOK 1\nEND\n"
	cases := []struct {
		name string
		resp string
		call func(*Client) error
		ok   bool
	}{
		{"node", "NODE 5\nEND\n", nodes, true},
		{"node trailing text", "NODE 5abc\nEND\n", nodes, false},
		{"node two numbers", "NODE 5 6\nEND\n", nodes, false},
		{"node fraction", "NODE 5.5\nEND\n", nodes, false},
		{"node no number", "NODE\nEND\n", nodes, false},
		{"batch", "BATCH 2\n" + blocks, batch, true},
		{"batch trailing text", "BATCH 2x\n" + blocks, batch, false},
		{"batch two numbers", "BATCH 2 3\n" + blocks, batch, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call(cannedClient(tc.resp))
			if tc.ok && err != nil {
				t.Fatalf("%q rejected: %v", tc.resp, err)
			}
			if !tc.ok && !errors.Is(err, errProtocol) {
				t.Fatalf("%q: err = %v, want a protocol error", tc.resp, err)
			}
		})
	}
}
