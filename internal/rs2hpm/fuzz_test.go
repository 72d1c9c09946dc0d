package rs2hpm

// Fuzz targets for the wire decoders. decodeBatch reads frames off a
// network socket, so arbitrary bytes must produce an error, never a
// panic or a hang, and anything it accepts must honor the frame contract:
// exactly one entry per requested node, in request order. The committed
// corpus under testdata/fuzz pins the interesting shapes: a well-formed
// frame, the v1 unknown-command downgrade signal, truncations, count
// mismatches, and out-of-order blocks. FuzzCounterLine holds the
// allocation-free counter-line parse to the strings.Fields reference.

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/hpm"
)

func FuzzWireBatchDecode(f *testing.F) {
	// Seeds mirror real daemon output and its edges. nodes picks the
	// request list the frame is decoded against: 0 -> [], 1 -> [0],
	// 2 -> [0 1], ...
	f.Add([]byte("BATCH 2\nOK 0\nC 1 1.1 CYCLES 10 0\nEND\nOK 1\nEND\n"), uint8(2))
	f.Add([]byte("BATCH 2\nOK 0\nEND\nERR 1 read node 1: boom\n"), uint8(2))
	f.Add([]byte("ERR unknown command \"MGET\"\n"), uint8(1))
	f.Add([]byte("ERR usage: MGET <node...>|*\n"), uint8(1))
	f.Add([]byte("BATCH 0\n"), uint8(0))
	f.Add([]byte("BATCH 1\n"), uint8(2))              // count mismatch
	f.Add([]byte("BATCH 2\nOK 1\nEND\n"), uint8(2))   // out-of-order block
	f.Add([]byte("BATCH 1\nOK 0\nC 1 1.1"), uint8(1)) // truncated mid-block
	f.Add([]byte("BATCH -1\n"), uint8(0))
	f.Add([]byte(""), uint8(1))
	f.Add([]byte("BATCH 99999999999999999999\n"), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, nodes uint8) {
		if nodes > 8 {
			nodes = nodes % 9
		}
		want := make([]int, nodes)
		for i := range want {
			want[i] = i
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		entries, err := decodeBatch(sc, want)
		if err != nil {
			// Rejected frames must say what they are: either the v1
			// negotiation signal or a protocol error — never a bare error
			// the service can't classify.
			if !errors.Is(err, errUnsupported) && !errors.Is(err, errProtocol) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			if errors.Is(err, errUnsupported) && !strings.Contains(string(data), "unknown command") {
				t.Fatalf("downgrade signal from a frame that never said unknown command: %q", data)
			}
			return
		}
		// Accepted frames honor the contract exactly.
		if len(entries) != len(want) {
			t.Fatalf("accepted frame decoded %d entries for %d requested nodes", len(entries), len(want))
		}
		for i, e := range entries {
			if e.Node != want[i] {
				t.Fatalf("entry %d answers node %d, requested %d", i, e.Node, want[i])
			}
			if e.Err != nil && !errors.Is(e.Err, errProtocol) {
				t.Fatalf("per-node error is unclassified: %v", e.Err)
			}
		}
	})
}

func FuzzCounterLine(f *testing.F) {
	for _, line := range strings.Split(strings.TrimSuffix(encodeCounterLines(f, newStaticSource(3).snap), "\n"), "\n") {
		f.Add(line)
	}
	f.Add("C 0 FXU.0 user.fxu0 0 0")
	f.Add("C\t1\tFXU.1\tuser.fxu1\t5\t6")
	f.Add("C 1  FXU.1 user.fxu1 5 6")
	f.Add("C 1 FXU.1 user.fxu1 +5 6")
	f.Add("C 1 FXU.1 user.fxu1 18446744073709551615 18446744073709551615")
	f.Add("C 1 FXU.1 user.fxu1 18446744073709551616 6")
	f.Add("C 1 FXU.1 user.fxu1 5 99999999999999999999")
	f.Add("C 22 SCU.5 user.dma_next 1 2")
	f.Add("C 01 FXU.1 user.fxu1 5 6")
	f.Add("c 1 FXU.1 user.fxu1 5 6")
	f.Add("C 1 FXU.0 user.fxu0 5 6")
	f.Add("C 1 FXU.1 user.fxu1 5 6 7")
	f.Add("C 1 FXU.1 user.fxu1 5\u00a06")
	f.Add("C 1 FXU.1 user.fxu1 5\u00856")
	f.Add("C 1 a: ERR")
	f.Add("")

	f.Fuzz(func(t *testing.T, line string) {
		var fast, ref hpm.Counts64
		errFast := parseCounterBytes([]byte(line), &fast)
		errRef := parseCounterLine(line, &ref)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("%q: parse says %v, reference says %v", line, errFast, errRef)
		}
		if errFast != nil && !errors.Is(errFast, errProtocol) {
			t.Fatalf("%q: unclassified error: %v", line, errFast)
		}
		if fast != ref {
			t.Fatalf("%q: parse and reference decode different snapshots", line)
		}
	})
}
