package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// sampleCheckpoint builds a small but non-trivial checkpoint: two of a
// three-cluster fleet's clusters, completed out of index order.
func sampleCheckpoint() FleetCheckpoint {
	res := workload.Result{
		Config: workload.Config{
			Days: 2, Nodes: 8, Seed: 7,
			SamplePeriodSeconds: 900,
			MeanUtil:            0.65, UtilSigma: 0.20,
			PagingDayProb: 0.20, MinRecordWall: 600,
		},
		Days: []workload.Day{
			{Index: 0, BusyNodeSeconds: 12345.5},
			{Index: 1, BusyNodeSeconds: 23456.25},
		},
		MaxGflops15min: 1.5,
		DroppedRecords: 3,
	}
	return FleetCheckpoint{
		Version:  FleetCheckpointVersion,
		FleetID:  0xdeadbeefcafe,
		Clusters: 3,
		Done:     []FleetClusterResult{{Cluster: 1, Result: res}, {Cluster: 0, Result: sampleResult()}},
	}
}

// encodeCheckpoint returns the journal a fleet leaves behind for cp: the
// header, then one segment per completed cluster, in order.
func encodeCheckpoint(t testing.TB, cp FleetCheckpoint, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := headerLine(cp.FleetID, cp.Clusters)
	if gz {
		hdr = gzipMember(hdr)
	}
	buf.Write(hdr)
	for _, d := range cp.Done {
		buf.Write(segmentRecord(t, d, gz))
	}
	return buf.Bytes()
}

// segmentRecord is d's record as Append writes it, encoded in a fresh
// buffer and compressed by a fresh gzip writer when gz.
func segmentRecord(t testing.TB, d FleetClusterResult, gz bool) []byte {
	t.Helper()
	rec, err := encodeSegment(nil, d.Cluster, &d.Result)
	if err != nil {
		t.Fatal(err)
	}
	if gz {
		rec = gzipMember(rec)
	}
	return rec
}

// recordEnds returns where each record of cp's journal ends: the header,
// then each segment.
func recordEnds(t testing.TB, cp FleetCheckpoint, gz bool) []int {
	t.Helper()
	hdr := cp
	hdr.Done = nil
	ends := []int{len(encodeCheckpoint(t, hdr, gz))}
	for _, d := range cp.Done {
		ends = append(ends, ends[len(ends)-1]+len(segmentRecord(t, d, gz)))
	}
	return ends
}

// writeCheckpoint writes cp to path the way a fleet does: CreateJournal,
// then one Append per completed cluster.
func writeCheckpoint(t testing.TB, path string, cp FleetCheckpoint) {
	t.Helper()
	j, err := CreateJournal(path, cp.FleetID, cp.Clusters)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, d := range cp.Done {
		if err := j.Append(d.Cluster, d.Result); err != nil {
			t.Fatalf("append cluster %d: %v", d.Cluster, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestFleetCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	for _, gz := range []bool{false, true} {
		data := encodeCheckpoint(t, cp, gz)
		got, end, err := decodeCheckpoint(data, gz)
		if err != nil {
			t.Fatalf("gz=%v: read: %v", gz, err)
		}
		if end != len(data) {
			t.Fatalf("gz=%v: intact journal read as %d of %d bytes", gz, end, len(data))
		}
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("gz=%v: round trip changed the checkpoint:\nwrote %+v\n read %+v", gz, cp, got)
		}
	}
}

// A journal written through CreateJournal and Append is exactly the
// header and the segments, reads back unchanged, and keeps taking
// segments after a resume.
func TestFleetCheckpointFileRoundTrip(t *testing.T) {
	for _, name := range []string{"fleet.ckpt", "fleet.ckpt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		gz := strings.HasSuffix(name, ".gz")
		cp := sampleCheckpoint()
		writeCheckpoint(t, path, cp)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, encodeCheckpoint(t, cp, gz)) {
			t.Fatalf("%s: file is not the header followed by the segments", name)
		}
		got, err := ReadFleetCheckpointFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("%s: file round trip changed the checkpoint", name)
		}

		got, j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("%s: resume read a different checkpoint", name)
		}
		last := FleetClusterResult{Cluster: 2, Result: sampleResult()}
		if err := j.Append(last.Cluster, last.Result); err != nil {
			t.Fatalf("%s: append after resume: %v", name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		cp.Done = append(cp.Done, last)
		if got, err := ReadFleetCheckpointFile(path); err != nil || !reflect.DeepEqual(cp, got) {
			t.Fatalf("%s: segment appended after a resume not read back (err %v)", name, err)
		}
	}
}

// A fresh journal replaces an old file at its path whole and leaves no
// temporary droppings — a kill between runs must find either the old
// file or the new header, never a mix.
func TestFleetCheckpointFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	writeCheckpoint(t, path, sampleCheckpoint())
	j, err := CreateJournal(path, 42, 5)
	if err != nil {
		t.Fatalf("second create: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleetCheckpointFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := FleetCheckpoint{Version: FleetCheckpointVersion, FleetID: 42, Clusters: 5}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replace did not take: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fleet.ckpt" {
		t.Fatalf("temporary files left behind: %v", entries)
	}
}

func TestFleetCheckpointRejectsCorruptEnvelopes(t *testing.T) {
	good := sampleCheckpoint()
	data := encodeCheckpoint(t, good, false)
	ends := recordEnds(t, good, false)
	// withFrame returns the journal with segment k's (from 1) frame field
	// at off (0 cluster, 4 length, 12 the CRC of those, 16 the payload's
	// CRC) rewritten by set.
	withFrame := func(k, off int, set func([]byte)) []byte {
		b := bytes.Clone(data)
		set(b[ends[k-1]+off:])
		return b
	}
	flipCRC := func(b []byte) { b[0] ^= 0xff }
	setCluster := func(c uint32) func([]byte) { return func(b []byte) { binary.BigEndian.PutUint32(b, c) } }
	hugeLength := func(b []byte) { binary.BigEndian.PutUint64(b, 1<<40) }
	// refiled returns the journal with segment k filed under cluster c,
	// its frame CRCs made to match.
	refiled := func(k int, c uint32) []byte {
		b := bytes.Clone(data)
		putFrame(b[ends[k-1]:ends[k]], c)
		return b
	}
	notDatabase := func() []byte {
		seg := append(make([]byte, frameLen), "{}\n"...)
		putFrame(seg, 2)
		return append(append(bytes.Clone(data[:ends[1]]), seg...), data[ends[1]:]...)
	}
	header := func(s string) []byte { return []byte(s + "\n") }
	cases := []struct {
		name string
		in   []byte
		want error
		msg  string
	}{
		{"empty", nil, ErrCorrupt, "header"},
		{"torn header", data[:ends[0]-1], ErrCorrupt, "header"},
		{"not JSON", header("not a checkpoint"), ErrCorrupt, "header"},
		{"empty header", header(`{}`), ErrCorrupt, "no format or version"},
		{"null header", header(`null`), ErrCorrupt, "no format or version"},
		{"version 1", header(`{"version":1,"fleet_id":1,"clusters":1,"done":null,"cursors":null}`), ErrVersion, "version 1"},
		{"version 1 with trailing data", header(`{"version":1,"fleet_id":1,"clusters":1,"done":null,"cursors":null}garbage`), ErrCorrupt, "header"},
		{"version skew", header(`{"format":"hpm-fleet-checkpoint","version":99,"fleet_id":1,"clusters":1}`), ErrVersion, "version 99"},
		{"no format", header(`{"version":2,"fleet_id":1,"clusters":1}`), ErrCorrupt, "not a hpm-fleet-checkpoint header"},
		{"unknown field", header(`{"format":"hpm-fleet-checkpoint","version":2,"fleet_id":1,"clusters":1,"shards":2}`), ErrCorrupt, "unknown field"},
		{"zero clusters", header(`{"format":"hpm-fleet-checkpoint","version":2,"fleet_id":1,"clusters":0}`), ErrCorrupt, "fleet size 0"},
		{"first payload CRC flipped", withFrame(1, 16, flipCRC), ErrCorrupt, "torn record"},
		{"first frame CRC flipped", withFrame(1, 12, flipCRC), ErrCorrupt, "frame fails its CRC"},
		{"first cluster damaged", withFrame(1, 0, setCluster(2)), ErrCorrupt, "frame fails its CRC"},
		{"first length past the end", withFrame(1, 4, hugeLength), ErrCorrupt, "frame fails its CRC"},
		{"last cluster damaged", withFrame(2, 0, setCluster(2)), ErrCorrupt, "frame fails its CRC"},
		{"cluster out of range", refiled(2, 3), ErrCorrupt, "out of range"},
		{"cluster repeated", refiled(2, 1), ErrCorrupt, "recorded twice"},
		{"payload not a database", notDatabase(), ErrCorrupt, "segment at byte"},
	}
	for _, tc := range cases {
		_, _, err := decodeCheckpoint(tc.in, false)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}
	// A gzip journal with garbage where a member should start is damaged,
	// not torn: no append writes anything but a whole gzip member.
	gzData := encodeCheckpoint(t, good, true)
	gzEnds := recordEnds(t, good, true)
	garbled := bytes.Clone(gzData)
	garbled[gzEnds[1]] ^= 0xff
	if _, _, err := decodeCheckpoint(garbled, true); !errors.Is(err, ErrCorrupt) {
		t.Errorf("gzip member with a broken magic number: got %v, want ErrCorrupt", err)
	}
	// A last segment failing its payload CRC is a torn append, not damage:
	// it is dropped, and its cluster re-runs.
	if got, end, err := decodeCheckpoint(withFrame(2, 16, flipCRC), false); err != nil || end != ends[1] || !reflect.DeepEqual(got.Done, good.Done[:1]) {
		t.Errorf("last payload CRC flipped: loaded %d segments ending at %d (err %v), want 1 ending at %d", len(got.Done), end, err, ends[1])
	}
	// Sanity: the rejection cases above are rejections of the *input*, not
	// an over-strict validator — the reference checkpoint still loads.
	if _, _, err := decodeCheckpoint(data, false); err != nil {
		t.Fatalf("reference checkpoint rejected: %v", err)
	}
}

// TestFleetCheckpointTornTail: a kill can cut the journal anywhere. A cut
// inside the header is corrupt; a cut anywhere after it loads every
// whole segment before the cut, and a resume from it drops the torn
// tail and appends where it ended.
func TestFleetCheckpointTornTail(t *testing.T) {
	cp := sampleCheckpoint()
	next := FleetClusterResult{Cluster: 2, Result: sampleResult()}
	for _, name := range []string{"fleet.ckpt", "fleet.ckpt.gz"} {
		gz := strings.HasSuffix(name, ".gz")
		data := encodeCheckpoint(t, cp, gz)
		ends := recordEnds(t, cp, gz)
		path := filepath.Join(t.TempDir(), name)
		// Resuming is slower than reading (it fsyncs), so it is checked
		// on and beside every record boundary and inside every segment.
		resumeAt := map[int]bool{}
		for i, e := range ends {
			resumeAt[e-1], resumeAt[e], resumeAt[e+1] = true, true, true
			if i > 0 {
				resumeAt[(ends[i-1]+e)/2] = true
			}
		}
		for n := 0; n <= len(data); n++ {
			got, end, err := decodeCheckpoint(data[:n], gz)
			if n < ends[0] {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s cut at %d, inside the header: got %v, want ErrCorrupt", name, n, err)
				}
				continue
			}
			whole := 0
			for whole+1 < len(ends) && ends[whole+1] <= n {
				whole++
			}
			if err != nil || end != ends[whole] || !sameDone(got.Done, cp.Done[:whole]) {
				t.Fatalf("%s cut at %d: got %d segments ending at %d (err %v), want %d ending at %d",
					name, n, len(got.Done), end, err, whole, ends[whole])
			}
			if !resumeAt[n] {
				continue
			}
			if err := writeRaw(path, data[:n]); err != nil {
				t.Fatal(err)
			}
			_, j, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("%s cut at %d: resume: %v", name, n, err)
			}
			if size, err := statFile(path); err != nil || size != int64(ends[whole]) {
				t.Fatalf("%s cut at %d: resume left %d bytes, want %d (err %v)", name, n, size, ends[whole], err)
			}
			if err := j.Append(next.Cluster, next.Result); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			resumed, err := ReadFleetCheckpointFile(path)
			want := append(append([]FleetClusterResult(nil), cp.Done[:whole]...), next)
			if err != nil || !sameDone(resumed.Done, want) {
				t.Fatalf("%s cut at %d: segment appended after the cut not read back (err %v)", name, n, err)
			}
		}
	}
}

// sameDone reports whether two lists of completed clusters are equal,
// counting nil and empty as equal.
func sameDone(a, b []FleetClusterResult) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// A journal at a path that is not a regular file is refused before
// anything is written to it or read from it: a device takes the header
// but fails every append's fsync, and only after a whole cluster has
// run. TestWritersReportFullDevice covers a link to a device.
func TestJournalRefusesDevice(t *testing.T) {
	j, err := CreateJournal(os.DevNull, 1, 2)
	if err == nil {
		j.Close()
		t.Error("CreateJournal(os.DevNull) succeeded")
	} else if !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("CreateJournal(os.DevNull): %v, want a refused device", err)
	}
	_, j, err = OpenJournal(os.DevNull)
	if err == nil {
		j.Close()
		t.Error("OpenJournal(os.DevNull) succeeded")
	} else if !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("OpenJournal(os.DevNull): %v, want a refused device", err)
	}
}

func TestFleetCheckpointMissingFile(t *testing.T) {
	if _, err := ReadFleetCheckpointFile(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("missing checkpoint file did not error")
	}
}

// Shards append to one journal at once: every segment must land whole
// and read back once.
func TestJournalConcurrentAppends(t *testing.T) {
	const clusters = 8
	path := filepath.Join(t.TempDir(), "fleet.ckpt.gz")
	j, err := CreateJournal(path, 1, clusters)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clusters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := sampleResult()
			res.DroppedRecords = c
			if err := j.Append(c, res); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadFleetCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Done) != clusters {
		t.Fatalf("read %d segments, want %d", len(cp.Done), clusters)
	}
	for _, d := range cp.Done {
		if d.Result.DroppedRecords != d.Cluster {
			t.Fatalf("cluster %d carries cluster %d's Result", d.Cluster, d.Result.DroppedRecords)
		}
	}
}

// TestJournalFailedAppend: an append whose write fails partway, or whose
// fsync fails, returns the error; the journal then refuses every later
// append, and the file still loads with every segment appended before.
func TestJournalFailedAppend(t *testing.T) {
	cp := sampleCheckpoint()
	for _, name := range []string{"fleet.ckpt", "fleet.ckpt.gz"} {
		seg := segmentRecord(t, cp.Done[1], strings.HasSuffix(name, ".gz"))
		for _, n := range []int{0, 1, frameLen - 1, frameLen, frameLen + 1, len(seg) - 1, -1} {
			path := filepath.Join(t.TempDir(), name)
			injected := injectFaults(t, n, true)
			j, err := CreateJournal(path, cp.FleetID, cp.Clusters)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(cp.Done[0].Cluster, cp.Done[0].Result); err != nil {
				t.Fatalf("%s, n=%d: first append: %v", name, n, err)
			}
			if err := j.Append(cp.Done[1].Cluster, cp.Done[1].Result); !errors.Is(err, injected) {
				t.Fatalf("%s, n=%d: failing append: got %v, want the injected error", name, n, err)
			}
			if err := j.Append(2, sampleResult()); !errors.Is(err, injected) {
				t.Fatalf("%s, n=%d: append after a failure: got %v, want the first error again", name, n, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFleetCheckpointFile(path)
			if err != nil {
				t.Fatalf("%s, n=%d: journal unreadable after a failed append: %v", name, n, err)
			}
			// A failed fsync leaves the whole segment in the file.
			want := cp.Done[:1]
			if n < 0 {
				want = cp.Done
			}
			if !reflect.DeepEqual(got.Done, want) {
				t.Fatalf("%s, n=%d: loaded %d segments, want %d", name, n, len(got.Done), len(want))
			}
		}
	}
}

// FuzzCheckpointDecode: the decoder fronts files users hand to -resume,
// so arbitrary bytes must produce an error classified as ErrVersion or
// ErrCorrupt, never a panic, and anything it accepts must survive an
// encode/decode cycle unchanged (a drifting checkpoint would silently
// corrupt a resumed campaign). Each input is read both as a plain and as
// a gzip journal.
func FuzzCheckpointDecode(f *testing.F) {
	// Hand seeds covering the header's edges; the committed corpus under
	// testdata/fuzz adds whole journals — valid, torn, with flipped CRCs,
	// repeated or out-of-range clusters — and version-1 checkpoints.
	f.Add([]byte(`{"format":"hpm-fleet-checkpoint","version":2,"fleet_id":1,"clusters":1}` + "\n"))
	f.Add([]byte(`{"format":"hpm-fleet-checkpoint","version":2,"fleet_id":18446744073709551615,"clusters":2}` + "\n"))
	f.Add([]byte(`{"format":"hpm-fleet-checkpoint","version":3,"fleet_id":1,"clusters":1}` + "\n"))
	f.Add([]byte(`{"format":"hpm-fleet-checkpoint","version":2,"fleet_id":1,"clusters":-1}` + "\n"))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, gz := range []bool{false, true} {
			cp, _, err := decodeCheckpoint(data, gz)
			if err != nil {
				if !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("gz=%v: decode error escaped classification: %v", gz, err)
				}
				continue
			}
			again, _, err := decodeCheckpoint(encodeCheckpoint(t, cp, gz), gz)
			if err != nil {
				t.Fatalf("gz=%v: decoding our own encoder's output failed: %v", gz, err)
			}
			if !reflect.DeepEqual(cp, again) {
				t.Fatalf("gz=%v: round trip changed the checkpoint:\n first: %+v\nsecond: %+v", gz, cp, again)
			}
		}
	})
}
