package replay

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// oneDay is the header of a 1-cluster, 1-day trace.
var oneDay = Header{Clusters: 1, Days: 1, ClusterDays: []int{1}}

// TestCloseFailedSyncLeavesTarget: a trace whose fsync fails is never
// renamed into place. Close reports the error, the file already at the
// target path is untouched, and no temporary file is left beside it.
func TestCloseFailedSyncLeavesTarget(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	orig := syncFile
	syncFile = func(*os.File) error { return errSync }
	t.Cleanup(func() { syncFile = orig })

	path := filepath.Join(t.TempDir(), "run.trace.gz")
	if err := os.WriteFile(path, []byte("previous trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Create(path, oneDay)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); !errors.Is(err, errSync) {
		t.Fatalf("Close = %v, want the fsync error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous trace" {
		t.Fatalf("target after a failed fsync: %q, %v", got, err)
	}
	left, err := filepath.Glob(path + ".tmp*")
	if err != nil || len(left) != 0 {
		t.Fatalf("temporary files left behind: %v, %v", left, err)
	}
}

// TestReadHeaderFileStopsAtHeader: the probe reads only the header, so a
// trace cut after it probes clean while the full decode fails; a file
// that is not a gzip trace fails the probe as it fails OpenFile.
func TestReadHeaderFileStopsAtHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.trace.gz")
	rec, err := Create(path, oneDay)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeaderFile(path)
	if err != nil || h.Format != FormatName || h.Clusters != 1 {
		t.Fatalf("probe of a header-only trace: %+v, %v", h, err)
	}
	if _, err := OpenFile(path); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("full decode of a header-only trace: %v, want trace.ErrCorrupt", err)
	}

	plain := filepath.Join(dir, "plain.trace.gz")
	if err := os.WriteFile(plain, []byte("not a gzip campaign trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeaderFile(plain); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("probe of a non-gzip file: %v, want trace.ErrCorrupt", err)
	}
}
