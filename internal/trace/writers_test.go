package trace_test

// Every persisted file reaches disk through trace.File. For each writer —
// the database (gzip and plain), the CSV export, the profile cache, the
// checkpoint journal's header and the replay trace — a write lands with
// mode 0644; a write that fails on its first byte, after 10 bytes or at
// the fsync returns the failure and leaves the previous file at the path
// byte-identical, with no temporary file beside it; and a symbolic link
// or a device at the path is written through, not renamed over — but
// for the checkpoint journal, which refuses a device before writing.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/pbs"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writers are the persisting writers, each named by the file it writes.
var writers = []struct {
	file  string
	write func(path string) error
}{
	{"db.json.gz", func(p string) error { return trace.WriteFile(p, smallResult()) }},
	{"db.json", func(p string) error { return trace.WriteFile(p, smallResult()) }},
	{"jobs.csv.gz", func(p string) error { return trace.WriteRecordsCSVFile(p, smallResult().Records) }},
	{"cache.json.gz", func(p string) error { return trace.WriteProfileCacheFile(p, profile.NewStore()) }},
	{"fleet.ckpt.gz", func(p string) error {
		j, err := trace.CreateJournal(p, 1, 1)
		if err != nil {
			return err
		}
		return j.Close()
	}},
	{"run.trace.gz", func(p string) error {
		rec, err := replay.Create(p, replay.Header{Clusters: 1, Days: 1, ClusterDays: []int{1}})
		if err != nil {
			return err
		}
		return rec.Close()
	}},
}

// smallResult is a two-day database with one job record.
func smallResult() workload.Result {
	res := workload.Result{Config: workload.DefaultConfig(5)}
	res.Config.Days = 2
	res.Days = []workload.Day{{Index: 0, BusyNodeSeconds: 98765}, {Index: 1}}
	res.Records = []pbs.Record{{JobID: 7, User: "u01", Class: "production-cfd", NodesUsed: 16, WallSeconds: 7200}}
	return res
}

// onlyFile fails t unless name is the only entry in dir.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("%s holds %v, want only %s", dir, entries, name)
	}
}

// TestWrittenFileMode: every writer's file lands with mode 0644, what
// os.Create gives under umask 022, whatever mode its temporary file was
// created with.
func TestWrittenFileMode(t *testing.T) {
	for _, w := range writers {
		dir := t.TempDir()
		path := filepath.Join(dir, w.file)
		if err := w.write(path); err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mode := fi.Mode().Perm(); mode != 0o644 {
			t.Errorf("%s: mode %#o, want 0644", w.file, mode)
		}
		onlyFile(t, dir, w.file)
	}
}

// TestWritersFollowLinks: a symbolic link at the path is written
// through, as os.Create writes through it: the link stays, and its
// target gets the new file.
func TestWritersFollowLinks(t *testing.T) {
	for _, w := range writers {
		dir := t.TempDir()
		target, link := filepath.Join(dir, "target-"+w.file), filepath.Join(dir, w.file)
		prev := []byte("previous " + w.file + "\n")
		if err := os.WriteFile(target, prev, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink("target-"+w.file, link); err != nil {
			t.Fatal(err)
		}
		if err := w.write(link); err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
			t.Errorf("%s: the link was replaced (err %v)", w.file, err)
		}
		if got, err := os.ReadFile(target); err != nil || bytes.Equal(got, prev) {
			t.Errorf("%s: the link's target was not rewritten (err %v)", w.file, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
			t.Errorf("%s: %s holds %v, want the link and its target", w.file, dir, entries)
		}
	}
}

// TestFailedWriteKeepsPreviousFile: a write that fails anywhere on its
// way to disk reports the failure and never replaces the previous file —
// renaming a truncated file over it, or truncating it in place, would
// lose the last good copy.
func TestFailedWriteKeepsPreviousFile(t *testing.T) {
	faults := []struct {
		name string
		n    int // bytes let through; -1 fails the fsync instead
	}{{"first byte", 0}, {"after 10 bytes", 10}, {"fsync", -1}}
	for _, w := range writers {
		for _, f := range faults {
			t.Run(w.file+"/"+f.name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, w.file)
				prev := []byte("previous " + w.file + "\n")
				if err := os.WriteFile(path, prev, 0o644); err != nil {
					t.Fatal(err)
				}
				injected := trace.FailWrites(t, f.n)
				if err := w.write(path); !errors.Is(err, injected) {
					t.Fatalf("got %v, want the injected error", err)
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
					t.Fatalf("previous file now holds %q (err %v)", got, err)
				}
				onlyFile(t, dir, w.file)
			})
		}
	}
}

// TestWritersReportFullDevice: a path holding a device is written in
// place, never renamed over, since a rename would replace the device
// itself (/dev/null). So a write through a link to a full device fails
// with ENOSPC rather than report success with nothing on disk, and the
// link is still there. The checkpoint journal fails sooner: a device
// takes no fsync, so it refuses one before writing the header.
func TestWritersReportFullDevice(t *testing.T) {
	if fi, err := os.Stat("/dev/full"); err != nil || fi.Mode()&os.ModeDevice == 0 {
		t.Skip("no /dev/full on this system")
	}
	for _, w := range writers {
		link := filepath.Join(t.TempDir(), w.file)
		if err := os.Symlink("/dev/full", link); err != nil {
			t.Fatal(err)
		}
		err := w.write(link)
		switch {
		case w.file == "fleet.ckpt.gz":
			if err == nil || !strings.Contains(err.Error(), "not a regular file") {
				t.Errorf("%s to /dev/full: got %v, want a refused device", w.file, err)
			}
		case !errors.Is(err, syscall.ENOSPC):
			t.Errorf("%s to /dev/full: got %v, want ENOSPC", w.file, err)
		}
		if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
			t.Errorf("%s: the link to /dev/full was replaced (err %v)", w.file, err)
		}
	}
}
