package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/profile"
)

// errFlush is what a faultyFile's writes and fsyncs fail with.
var errFlush = errors.New("injected write failure")

// faultyFile passes writes and fsyncs through to f until it is armed,
// which it is from the start or, with armOnSync, from its first fsync
// (past a journal's first append). Armed, it lets n more bytes through
// and fails every write after them; with n < 0 it fails its next fsync
// instead.
type faultyFile struct {
	f     *os.File
	n     int
	armed bool
}

func (w *faultyFile) Write(p []byte) (int, error) {
	if !w.armed || w.n < 0 {
		return w.f.Write(p)
	}
	if len(p) > w.n {
		n, _ := w.f.Write(p[:w.n])
		w.n = 0
		return n, errFlush
	}
	w.n -= len(p)
	return w.f.Write(p)
}

func (w *faultyFile) Sync() error {
	if w.armed && w.n < 0 {
		return errFlush
	}
	w.armed = true
	return w.f.Sync()
}

// injectFaults routes every file the package opens until t ends through
// a faultyFile with budget n, and returns the error they fail with.
func injectFaults(t testing.TB, n int, armOnSync bool) error {
	orig := fileWriter
	fileWriter = func(f *os.File) syncWriter { return &faultyFile{f: f, n: n, armed: !armOnSync} }
	t.Cleanup(func() { fileWriter = orig })
	return errFlush
}

// failFlush makes every file write in the test fail after 10 bytes: a
// gzip stream gets its header out, and for a small payload the first
// failing write is the final flush in Close.
func failFlush(t *testing.T) {
	t.Helper()
	injectFaults(t, 10, false)
}

// TestWritersReportFullDevice: a write to a full device must fail, not
// report success with nothing on disk.
func TestWritersReportFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	link := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.Symlink("/dev/full", p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := WriteFile(link("db.json.gz"), sampleResult()); err == nil {
		t.Error("WriteFile to /dev/full reported success")
	}
	store := profile.NewStore()
	if err := WriteProfileCacheFile(link("cache.json.gz"), store); err == nil {
		t.Error("WriteProfileCacheFile to /dev/full reported success")
	}
	if err := WriteRecordsCSVFile(link("jobs.csv"), sampleResult().Records); err == nil {
		t.Error("WriteRecordsCSVFile to /dev/full reported success")
	}
}

// TestWritersReportFailedFlush: when only the final gzip flush fails,
// every writer must return the error — the flush carries the compressed
// payload, so dropping its error reports a truncated file as written.
func TestWritersReportFailedFlush(t *testing.T) {
	dir := t.TempDir()
	failFlush(t)
	if err := WriteFile(filepath.Join(dir, "db.json.gz"), sampleResult()); !errors.Is(err, errFlush) {
		t.Errorf("WriteFile: got %v, want the flush error", err)
	}
	if err := WriteProfileCacheFile(filepath.Join(dir, "cache.json.gz"), profile.NewStore()); !errors.Is(err, errFlush) {
		t.Errorf("WriteProfileCacheFile: got %v, want the flush error", err)
	}
	if _, err := CreateJournal(filepath.Join(dir, "fleet.ckpt.gz"), 1, 1); !errors.Is(err, errFlush) {
		t.Errorf("CreateJournal: got %v, want the flush error", err)
	}
	if err := WriteRecordsCSVFile(filepath.Join(dir, "jobs.csv.gz"), sampleResult().Records); !errors.Is(err, errFlush) {
		t.Errorf("WriteRecordsCSVFile: got %v, want the flush error", err)
	}
}

// TestReadersRejectCorruptGzip: every whole-file format's reader must
// read a ".gz" stream through its trailer, so a flipped checksum byte or
// a cut trailer fails the load instead of passing the payload off as
// intact. (The checkpoint journal reads each record's member through its
// trailer too: TestFleetCheckpointGzipMemberDamage.)
func TestReadersRejectCorruptGzip(t *testing.T) {
	formats := []struct {
		name  string
		write func(path string) error
		read  func(path string) error
	}{
		{"database",
			func(p string) error { return WriteFile(p, sampleResult()) },
			func(p string) error { _, err := ReadFile(p); return err }},
		{"profile cache",
			func(p string) error { return WriteProfileCacheFile(p, profile.NewStore()) },
			func(p string) error { return LoadProfileCacheFile(p, profile.NewStore()) }},
	}
	// The gzip trailer is the last 8 bytes: CRC-32, then the length.
	corruptions := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"flipped CRC byte", func(b []byte) []byte { b[len(b)-8] ^= 0xff; return b }, gzip.ErrChecksum},
		{"cut trailer", func(b []byte) []byte { return b[:len(b)-4] }, io.ErrUnexpectedEOF},
	}
	for _, f := range formats {
		path := filepath.Join(t.TempDir(), "file.gz")
		if err := f.write(path); err != nil {
			t.Fatalf("%s: write: %v", f.name, err)
		}
		if err := f.read(path); err != nil {
			t.Fatalf("%s: intact file rejected: %v", f.name, err)
		}
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corruptions {
			if err := writeRaw(path, c.corrupt(bytes.Clone(good))); err != nil {
				t.Fatal(err)
			}
			if err := f.read(path); !errors.Is(err, c.want) {
				t.Errorf("%s, %s: got %v, want an error wrapping %v", f.name, c.name, err, c.want)
			}
		}
	}
}

// TestFleetCheckpointGzipMemberDamage: each journal record is a gzip
// member read through its trailer. A flipped trailer CRC or a cut
// trailer on the last member is a torn append, so the load drops that
// segment; on the first of two members it is damage, and the load fails
// — also when the damage makes the first member read as cut off by the
// end of the file, since an intact member follows it.
func TestFleetCheckpointGzipMemberDamage(t *testing.T) {
	cp := sampleCheckpoint()
	data := encodeCheckpoint(t, cp, true)
	ends := recordEnds(t, cp, true)
	path := filepath.Join(t.TempDir(), "fleet.ckpt.gz")
	// Segment k's (from 1) member ends at ends[k], its trailer with the
	// CRC-32 and then the length.
	flipCRC := func(k int) []byte {
		b := bytes.Clone(data)
		b[ends[k]-8] ^= 0xff
		return b
	}
	cutTrailer := func(k int) []byte {
		return append(bytes.Clone(data[:ends[k]-4]), data[ends[k]:]...)
	}
	// FEXTRA set in a member's header flags makes the reader skip an
	// extra field whose length it takes from the deflate stream, past the
	// end of the file.
	setExtra := func(k int) []byte {
		b := bytes.Clone(data)
		b[ends[k-1]+3] |= 1 << 2
		return b
	}
	for _, c := range []struct {
		name string
		in   []byte
		done int // segments loaded; -1 for a corrupt error
	}{
		{"last CRC flipped", flipCRC(2), 1},
		{"last trailer cut", cutTrailer(2), 1},
		{"first CRC flipped", flipCRC(1), -1},
		{"first trailer cut", cutTrailer(1), -1},
		{"first header flags damaged", setExtra(1), -1},
	} {
		if err := writeRaw(path, c.in); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFleetCheckpointFile(path)
		switch {
		case c.done < 0 && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
		case c.done >= 0 && (err != nil || !reflect.DeepEqual(got.Done, cp.Done[:c.done])):
			t.Errorf("%s: loaded %d segments (err %v), want %d", c.name, len(got.Done), err, c.done)
		}
	}
}

// TestFleetCheckpointFailedFlushKeepsPrevious: a fresh journal whose
// header flush fails must leave the previous checkpoint byte-identical
// and no temporary file behind — renaming the truncated file over it
// would lose the last good resume point.
func TestFleetCheckpointFailedFlushKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt.gz")
	writeCheckpoint(t, path, sampleCheckpoint())
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	failFlush(t)
	if _, err := CreateJournal(path, 42, 5); !errors.Is(err, errFlush) {
		t.Fatalf("second write: got %v, want the flush error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write changed the previous checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temporary files left behind: %v", entries)
	}
}
