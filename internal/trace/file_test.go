package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/profile"
)

// errFlush is what failAfter returns once its budget is spent.
var errFlush = errors.New("injected write failure")

// failAfter passes the first n bytes through to w and fails every write
// after that: with n = 10 a gzip stream gets its header out, and for a
// small payload the first failing write is the final flush in Close.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errFlush
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// failFlush routes every file write in the test through failAfter.
func failFlush(t *testing.T) {
	t.Helper()
	orig := fileWriter
	fileWriter = func(f *os.File) io.Writer { return &failAfter{w: f, n: 10} }
	t.Cleanup(func() { fileWriter = orig })
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
	if err := WriteFleetCheckpointFile(filepath.Join(dir, "fleet.ckpt.gz"), sampleCheckpoint()); !errors.Is(err, errFlush) {
		t.Errorf("WriteFleetCheckpointFile: got %v, want the flush error", err)
	}
	if err := WriteRecordsCSVFile(filepath.Join(dir, "jobs.csv.gz"), sampleResult().Records); !errors.Is(err, errFlush) {
		t.Errorf("WriteRecordsCSVFile: got %v, want the flush error", err)
	}
}

// TestReadersRejectCorruptGzip: every format's file reader must read a
// ".gz" stream through its trailer, so a flipped checksum byte or a cut
// trailer fails the load instead of passing the payload off as intact.
func TestReadersRejectCorruptGzip(t *testing.T) {
	formats := []struct {
		name  string
		write func(path string) error
		read  func(path string) error
	}{
		{"database",
			func(p string) error { return WriteFile(p, sampleResult()) },
			func(p string) error { _, err := ReadFile(p); return err }},
		{"checkpoint",
			func(p string) error { return WriteFleetCheckpointFile(p, sampleCheckpoint()) },
			func(p string) error { _, err := ReadFleetCheckpointFile(p); return err }},
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

// TestFleetCheckpointFailedFlushKeepsPrevious: a checkpoint write whose
// flush fails must leave the previous checkpoint byte-identical and no
// temporary file behind — renaming the truncated file over it would lose
// the last good resume point.
func TestFleetCheckpointFailedFlushKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt.gz")
	if err := WriteFleetCheckpointFile(path, sampleCheckpoint()); err != nil {
		t.Fatalf("first write: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := sampleCheckpoint()
	next.Cursors = []FleetCursor{{Cluster: 2, NextDay: 5}}
	failFlush(t)
	if err := WriteFleetCheckpointFile(path, next); !errors.Is(err, errFlush) {
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
